// Quickstart: the five-minute tour of the library.
//
// Builds a small synthetic malware landscape, observes it with a
// simulated SGNET deployment, runs EPM clustering on the three
// dimensions and behavioral clustering on the sandbox profiles, and
// prints what each perspective sees.
//
//   $ ./quickstart
#include <iostream>

#include "analysis/bview.hpp"
#include "analysis/graph.hpp"
#include "cluster/epm.hpp"
#include "cluster/feature.hpp"
#include "honeypot/deployment.hpp"
#include "honeypot/enrichment.hpp"
#include "malware/binary.hpp"
#include "malware/landscape.hpp"
#include "scenario/paper.hpp"

int main() {
  using namespace repro;

  // 1. A world to observe. The paper-scale preset scaled down to a few
  // hundred events keeps this example fast; build your own
  // malware::Landscape for full control (see honeypot_walkthrough.cpp).
  scenario::ScenarioOptions options;
  options.scale = 0.05;
  options.seed = 42;
  const malware::Landscape landscape =
      scenario::make_paper_landscape(options);
  const sandbox::Environment environment =
      scenario::make_paper_environment(landscape);
  std::cout << "landscape: " << landscape.families.size() << " families, "
            << landscape.variants.size() << " variants, "
            << landscape.exploits.size() << " exploit implementations, "
            << landscape.payloads.size() << " payload configurations\n";

  // 2. Observe it: 150 honeypot IPs in 30 network locations, Jan 2008
  // to May 2009.
  honeypot::DeploymentConfig config;
  config.seed = options.seed;
  honeypot::EventDatabase db;
  honeypot::Deployment{landscape, config}.drain_into(db);
  std::cout << "observed " << db.events().size() << " code-injection attacks"
            << ", collected " << db.samples().size() << " distinct binaries\n";

  // 3. Enrich: sandbox profiles (Anubis stand-in) + AV labels
  // (VirusTotal stand-in).
  const auto stats = honeypot::enrich_database(db, landscape, environment);
  std::cout << "sandbox executed " << stats.executed << " samples ("
            << stats.failed << " truncated/corrupted downloads failed)\n\n";

  // 4. Cluster each perspective.
  const auto e = cluster::epm_cluster(cluster::build_epsilon_data(db));
  const auto p = cluster::epm_cluster(cluster::build_pi_data(db));
  const auto m = cluster::epm_cluster(cluster::build_mu_data(db));
  const auto b = analysis::BehavioralView::build(db);
  std::cout << "E-clusters (exploit dialogs):      " << e.cluster_count()
            << "\n"
            << "P-clusters (injected payloads):    " << p.cluster_count()
            << "\n"
            << "M-clusters (static binary shape):  " << m.cluster_count()
            << "\n"
            << "B-clusters (runtime behavior):     " << b.cluster_count()
            << " (" << b.singleton_count() << " singletons)\n\n";

  // 5. Look at one pattern from each dimension.
  if (!p.patterns.empty()) {
    std::cout << "largest P-cluster pattern:\n";
    std::size_t largest = 0;
    for (std::size_t i = 1; i < p.members.size(); ++i) {
      if (p.members[i].size() > p.members[largest].size()) largest = i;
    }
    std::cout << p.patterns[largest].describe(p.schema) << "\n\n";
  }

  // 6. Combine the perspectives: the Figure-3 style graph.
  const auto graph = analysis::build_relationship_graph(db, e, p, m, b, 10);
  std::cout << "relationship graph (clusters with >=10 events): "
            << graph.nodes.size() << " nodes, " << graph.edges.size()
            << " edges\n"
            << "payloads shared by several exploits: "
            << graph.shared_p_count() << "\n"
            << "behaviors split across several static clusters: "
            << graph.split_b_count() << "\n";
  return 0;
}
