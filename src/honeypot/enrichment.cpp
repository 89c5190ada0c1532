#include "honeypot/enrichment.hpp"

#include <vector>

#include "honeypot/avlabels.hpp"
#include "sandbox/anubis.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace repro::honeypot {

namespace {

/// One sample's enrichment, accumulating into `stats`. Pure per sample:
/// every decision keys on the sample's own MD5 (no shared RNG stream),
/// so samples can be processed in any order — or concurrently — with
/// identical results.
void enrich_sample(MalwareSample& sample, const malware::Landscape& landscape,
                   const sandbox::Sandbox& sandbox,
                   fault::FaultInjector* faults, EnrichmentStats& stats) {
  ++stats.submitted;
  const malware::MalwareVariant& variant =
      landscape.variant(sample.truth_variant);

  // AV labeling; an injected labeler gap leaves the label explicitly
  // missing rather than inventing one.
  sample.label_missing =
      faults != nullptr && faults->av_label_gap(fnv1a64(sample.md5));
  if (sample.label_missing) {
    ++stats.label_gaps;
    sample.av_label.clear();
  } else {
    sample.av_label = assign_av_label(variant, sample.md5, !sample.intact());
  }

  // Dynamic analysis needs a complete, parseable executable. An intact
  // PE-shaped image the parser rejected (its facts carry no PE header)
  // is counted as a parse failure.
  if (sample.intact() && sample.facts.looks_like_pe && !sample.facts.pe) {
    ++stats.parse_failures;
  }
  if (!sample.runnable()) {
    ++stats.failed;
    return;
  }
  // Injected sandbox timeout/crash: the sample stays unenriched; the
  // healing path (analysis::heal_by_reexecution) retries it.
  if (faults != nullptr && faults->sandbox_fails(fnv1a64(sample.md5))) {
    ++stats.sandbox_faults;
    return;
  }
  sample.profile = sandbox.run(variant.behavior, sample.first_seen,
                               fnv1a64(sample.md5));
  ++stats.executed;
}

EnrichmentStats merge(const std::vector<EnrichmentStats>& chunks) {
  EnrichmentStats total;
  for (const EnrichmentStats& chunk : chunks) {
    total.submitted += chunk.submitted;
    total.executed += chunk.executed;
    total.failed += chunk.failed;
    total.parse_failures += chunk.parse_failures;
    total.sandbox_faults += chunk.sandbox_faults;
    total.label_gaps += chunk.label_gaps;
  }
  return total;
}

}  // namespace

EnrichmentStats enrich_database(EventDatabase& db,
                                const malware::Landscape& landscape,
                                const sandbox::Environment& environment,
                                fault::FaultInjector* faults,
                                ThreadPool* pool,
                                std::size_t first_sample) {
  const sandbox::Sandbox sandbox{environment};
  std::vector<MalwareSample>& samples = db.samples_mutable();
  if (first_sample >= samples.size()) return EnrichmentStats{};
  if (pool == nullptr || pool->width() == 1) {
    EnrichmentStats stats;
    for (std::size_t i = first_sample; i < samples.size(); ++i) {
      enrich_sample(samples[i], landscape, sandbox, faults, stats);
    }
    return stats;
  }
  // Parallel path: chunks own disjoint sample ranges (in-place writes
  // never alias) and accumulate private counter blocks, merged in
  // chunk order. The injector's decisions are pure hashes of the
  // sample MD5; only its report counters are shared, and those are
  // internally locked.
  constexpr std::size_t kChunk = 64;
  const std::vector<EnrichmentStats> chunks =
      pool->map_chunks<EnrichmentStats>(
          samples.size() - first_sample, kChunk,
          [&](std::size_t begin, std::size_t end) {
            EnrichmentStats stats;
            for (std::size_t i = begin; i < end; ++i) {
              enrich_sample(samples[first_sample + i], landscape, sandbox,
                            faults, stats);
            }
            return stats;
          });
  return merge(chunks);
}

}  // namespace repro::honeypot
