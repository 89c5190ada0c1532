// Deterministic observability metrics.
//
// repro-lint: allow-file(RL008) the inline Counter/Gauge/Histogram
// mutators use relaxed atomics: each cell is an independent statistic
// with no cross-variable invariant, and every reader either runs after
// the writers join or tolerates a stale point-in-time value.
//
// A MetricsRegistry holds named counters, gauges and histograms split
// across two channels:
//
//   kDeterministic — values that are pure functions of the pipeline
//     input (seed, scale, plan, resumable disk state): record counts,
//     cluster counts, fault decisions, checkpoint bytes. Exported JSON
//     is byte-identical at every thread width, so it can sit next to
//     golden exports and gate CI.
//   kRuntime — scheduling and machine artifacts (which thread ran a
//     chunk, how deep the queue got, how many signatures a
//     process-local cache reused). Real telemetry, but different on
//     every run shape; it is exported only alongside the wall-clock
//     trace, never in the deterministic channel.
//
// Handles returned by the registry are stable for the registry's
// lifetime and their update methods are lock-free atomics, so hot
// paths can bump counters from pool workers without coordination. A
// registry instance accumulates one pipeline run; exports sort by
// metric name, so insertion order never shows in the bytes.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace repro::obs {

enum class Channel : std::uint8_t {
  kDeterministic,  // pure function of the input; byte-identical exports
  kRuntime,        // scheduling/wall-clock artifacts; trace-side only
};

[[nodiscard]] std::string_view channel_name(Channel channel);

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value, with a monotonic-max helper
/// for high-water marks (queue depth).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  /// Raises the gauge to `v` if it is below; concurrent callers settle
  /// on the maximum.
  void raise_to(std::int64_t v) noexcept;
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bound histogram: `bounds` are ascending inclusive upper
/// bounds, plus one implicit overflow bucket. Observation is a single
/// relaxed increment.
class Histogram {
 public:
  /// Throws ConfigError unless bounds are non-empty and strictly
  /// ascending.
  explicit Histogram(std::vector<std::uint64_t> bounds);

  void observe(std::uint64_t v) noexcept;

  [[nodiscard]] const std::vector<std::uint64_t>& bounds() const noexcept {
    return bounds_;
  }
  /// Bucket counts, bounds().size() + 1 entries (last = overflow).
  [[nodiscard]] std::vector<std::uint64_t> counts() const;
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<std::uint64_t> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the named metric, creating it on first use. Re-requesting
  /// an existing name must agree on kind and channel (ConfigError
  /// otherwise); for histograms the bounds must match too.
  Counter& counter(std::string_view name,
                   Channel channel = Channel::kDeterministic);
  Gauge& gauge(std::string_view name,
               Channel channel = Channel::kDeterministic);
  Histogram& histogram(std::string_view name,
                       std::vector<std::uint64_t> bounds,
                       Channel channel = Channel::kDeterministic);

  /// One channel's metrics as JSON: objects sorted by metric name, no
  /// floats, no timestamps — byte-identical whenever the underlying
  /// values are.
  [[nodiscard]] std::string to_json(Channel channel) const;

  /// Every counter of `channel` as (name, value), sorted by name.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  counter_values(Channel channel) const;

  /// Human-readable table of both channels (runtime rows are marked),
  /// suitable for appending to the landscape report.
  [[nodiscard]] std::string render_summary() const;

 private:
  template <typename Metric>
  struct Entry {
    Channel channel = Channel::kDeterministic;
    std::unique_ptr<Metric> metric;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Entry<Counter>, std::less<>> counters_;
  std::map<std::string, Entry<Gauge>, std::less<>> gauges_;
  std::map<std::string, Entry<Histogram>, std::less<>> histograms_;
};

/// Convenience for optional registries: a no-op when `metrics` is null.
inline void add_counter(MetricsRegistry* metrics, std::string_view name,
                        std::uint64_t n,
                        Channel channel = Channel::kDeterministic) {
  if (metrics != nullptr) metrics->counter(name, channel).add(n);
}

}  // namespace repro::obs
