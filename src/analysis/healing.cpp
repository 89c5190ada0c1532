#include "analysis/healing.hpp"

#include "sandbox/anubis.hpp"
#include "util/rng.hpp"

namespace repro::analysis {

std::vector<honeypot::SampleId> unenriched_executable_samples(
    const honeypot::EventDatabase& db) {
  std::vector<honeypot::SampleId> out;
  for (const honeypot::MalwareSample& sample : db.samples()) {
    if (!sample.profile.has_value() && sample.runnable()) {
      out.push_back(sample.id);
    }
  }
  return out;
}

HealingOutcome heal_by_reexecution(
    honeypot::EventDatabase& db, const malware::Landscape& landscape,
    const sandbox::Environment& environment,
    const std::vector<honeypot::SampleId>& suspects,
    const BehavioralView& before, int reruns,
    const cluster::BehavioralOptions& options) {
  HealingOutcome outcome;
  outcome.report.suspects = suspects.size();
  outcome.report.b_clusters_before = before.cluster_count();
  outcome.report.singletons_before = before.singleton_count();

  const sandbox::Sandbox sandbox{environment};
  for (const honeypot::SampleId id : suspects) {
    honeypot::MalwareSample& sample = db.sample_mutable(id);
    // Samples whose bytes cannot execute are skipped; samples that are
    // runnable but never got a profile (sandbox fault during
    // enrichment) are recovered here with their first execution.
    if (!sample.runnable()) {
      ++outcome.report.unrunnable;
      continue;
    }
    const bool was_unenriched = !sample.profile.has_value();
    const malware::MalwareVariant& variant =
        landscape.variant(sample.truth_variant);
    // Fresh executions use a seed stream distinct from the original
    // submission so the noise draw is independent.
    sample.profile = sandbox.run_repeated(
        variant.behavior, sample.first_seen,
        mix64(fnv1a64(sample.md5) ^ 0x4ea1'0000'0000'0000ULL), reruns);
    ++outcome.report.reexecuted;
    if (was_unenriched) ++outcome.report.recovered_unenriched;
  }

  outcome.after = BehavioralView::build(db, options);
  outcome.report.b_clusters_after = outcome.after.cluster_count();
  outcome.report.singletons_after = outcome.after.singleton_count();
  return outcome;
}

}  // namespace repro::analysis
