// Incremental EPM clustering over a growing event stream.
//
// epm_cluster() recomputes all four phases from scratch; on the
// streaming path that full recompute runs every epoch and dominates the
// epoch wall time (ROADMAP item 1). IncrementalEpm keeps the Phase-2
// counting state — per-(feature,value) instance, source and destination
// statistics — alive across epochs and absorbs each epoch's event delta
// instead:
//
//   1. New rows update the counts and a postings list (value -> rows).
//   2. The invariant table is advanced from the updated counts. Counts
//      only grow and the relevance constraints are lower bounds, so a
//      value's invariant status can only flip non-invariant ->
//      invariant, and only for values the delta touched.
//   3. Only rows containing a flipped value can change their
//      generalization; exactly those rows (plus the new ones) are
//      re-generalized. All other pattern assignments are reused.
//   4. Patterns are interned by their (injective) key into a stable
//      pool; cluster ids are densified in first-seen row order, so the
//      result is byte-identical to epm_cluster() over the whole
//      database.
//
// The counting state is a pure function of the absorbed rows, so it is
// never persisted: restore() recounts it from the database that resume
// rebuilt by replaying the cut's WAL prefix, and takes from the cut only
// what a recount cannot give — the clustering result (checked against
// the recount) and the cumulative reclassification total (the
// deterministic `epm.instances_reclassified` counter, which is history).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/epm.hpp"
#include "cluster/feature.hpp"
#include "cluster/invariants.hpp"
#include "honeypot/database.hpp"

namespace repro::cluster {

class IncrementalEpm {
 public:
  explicit IncrementalEpm(Dimension dimension);

  /// Absorbs events [events_seen(), db.events().size()) and returns the
  /// clustering of every row seen so far — byte-identical (through the
  /// snapshot codec) to epm_cluster(build_<dim>_data(db), thresholds).
  /// The thresholds must not change across updates of one engine.
  [[nodiscard]] EpmResult update(const honeypot::EventDatabase& db,
                                 const InvariantThresholds& thresholds = {});

  /// Re-primes the engine from a restored checkpoint: recounts every
  /// row of `db` (the database rebuilt from the cut's WAL prefix), then
  /// adopts the cut's clustering `result` and reclassification total.
  /// Throws ConfigError unless `result` describes exactly those rows —
  /// the same event ids, and the invariant table the recount yields
  /// under `thresholds` (which must be the ones update() ran with).
  void restore(const honeypot::EventDatabase& db, const EpmResult& result,
               std::uint64_t reclassified,
               const InvariantThresholds& thresholds = {});

  /// Cumulative number of previously classified rows whose pattern was
  /// recomputed because a value's invariant status flipped. Survives
  /// kill/resume through the epoch cut (restore()).
  [[nodiscard]] std::uint64_t instances_reclassified() const noexcept {
    return reclassified_;
  }

  [[nodiscard]] std::size_t events_seen() const noexcept {
    return events_seen_;
  }
  [[nodiscard]] Dimension dimension() const noexcept {
    return schema_.dimension;
  }

 private:
  struct ValueStats {
    std::uint64_t instances = 0;
    std::unordered_set<std::uint32_t> sources;
    std::unordered_set<std::uint32_t> destinations;
    /// Rows containing this value, ascending — the reclassification
    /// trigger set of an invariant flip.
    std::vector<std::size_t> rows;
  };

  /// Cached per-sample mu row: the shared feature vector plus the
  /// resolved per-feature counting slots (unordered_map nodes are
  /// pointer-stable), so repeat events of one sample neither copy the
  /// mu strings nor re-hash them into the counting maps.
  struct MuEntry {
    std::shared_ptr<const FeatureVector> row;
    std::vector<ValueStats*> slots;
  };
  /// One event's row under this dimension: a shared feature vector
  /// (null when the event carries no observation) plus, for mu, the
  /// sample's slot cache.
  struct RowRef {
    std::shared_ptr<const FeatureVector> row;
    std::vector<ValueStats*>* slots = nullptr;
  };

  void reset();
  /// Row of one event under this dimension. Mu vectors are cached per
  /// sample (they are a pure function of the binary).
  [[nodiscard]] RowRef extract_row(const honeypot::AttackEvent& event,
                                   const honeypot::EventDatabase& db);
  /// Appends one row and counts its values.
  void add_row(RowRef ref, const honeypot::AttackEvent& event);
  [[nodiscard]] bool meets(const ValueStats& stats,
                           const InvariantThresholds& thresholds) const;
  /// Interns a pattern by key into the stable pool.
  [[nodiscard]] int intern(Pattern pattern);
  /// Densifies the per-row pattern handles into an EpmResult in
  /// first-seen row order — the exact shape epm_cluster() produces.
  [[nodiscard]] EpmResult materialize() const;

  FeatureSchema schema_;
  std::size_t events_seen_ = 0;
  std::vector<std::shared_ptr<const FeatureVector>> rows_;
  std::vector<honeypot::EventId> event_ids_;
  /// Per feature: value -> statistics + postings.
  std::vector<std::unordered_map<std::string, ValueStats>> stats_;
  InvariantTable invariants_{0};
  /// Interned pattern pool in first-intern order; may contain stale
  /// patterns no row generalizes to anymore (harmless — densification
  /// drops them).
  std::vector<Pattern> pool_;
  std::unordered_map<std::string, int> pool_index_;
  /// Row -> pool handle.
  std::vector<int> handles_;
  std::uint64_t reclassified_ = 0;
  std::unordered_map<honeypot::SampleId, MuEntry> mu_cache_;
};

}  // namespace repro::cluster
