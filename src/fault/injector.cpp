#include "fault/injector.hpp"

// repro-lint: allow-file(RL008) every atomic here is an independent
// statistic counter (fetch_add/load, no cross-variable invariants); the
// deterministic totals are reconciled after join(), so relaxed ordering
// cannot reorder anything another thread depends on.

#include <sstream>

#include "util/rng.hpp"

namespace repro::fault {

bool FaultReport::any() const noexcept {
  return attacks_lost_to_outage > 0 || proxy_failures > 0 ||
         refinements_abandoned > 0 || downloads_refused > 0 ||
         downloads_corrupted > 0 || sandbox_failures > 0 ||
         av_label_gaps > 0 || delivery_failures > 0 ||
         serve_slow_clients > 0 || serve_disconnects > 0 ||
         serve_accept_failures > 0;
}

namespace {

/// Applies `op` to every counter pair of two reports. Keeping the
/// member list in one place means add/subtract can never drift apart
/// when FaultReport grows a field.
template <typename Op>
FaultReport combine(const FaultReport& a, const FaultReport& b, Op op) {
  FaultReport out;
  const auto apply = [&](auto member) { out.*member = op(a.*member, b.*member); };
  apply(&FaultReport::attacks_lost_to_outage);
  apply(&FaultReport::sensor_checks);
  apply(&FaultReport::proxy_attempts);
  apply(&FaultReport::proxy_failures);
  apply(&FaultReport::proxy_retries);
  apply(&FaultReport::refinements_abandoned);
  apply(&FaultReport::proxy_backoff_seconds);
  apply(&FaultReport::download_checks);
  apply(&FaultReport::downloads_refused);
  apply(&FaultReport::downloads_corrupted);
  apply(&FaultReport::sandbox_checks);
  apply(&FaultReport::sandbox_failures);
  apply(&FaultReport::av_label_checks);
  apply(&FaultReport::av_label_gaps);
  apply(&FaultReport::delivery_checks);
  apply(&FaultReport::delivery_failures);
  apply(&FaultReport::delivery_retries);
  apply(&FaultReport::delivery_retry_exhausted);
  apply(&FaultReport::delivery_backoff_seconds);
  apply(&FaultReport::serve_checks);
  apply(&FaultReport::serve_slow_clients);
  apply(&FaultReport::serve_disconnects);
  apply(&FaultReport::serve_accept_failures);
  return out;
}

}  // namespace

FaultReport add(const FaultReport& a, const FaultReport& b) {
  return combine(a, b, [](auto x, auto y) { return x + y; });
}

FaultReport subtract(const FaultReport& a, const FaultReport& b) {
  return combine(a, b, [](auto x, auto y) { return x - y; });
}

std::string FaultReport::summary() const {
  std::ostringstream out;
  out << "--- fault degradation summary ---\n"
      << "  sensor outages:      " << attacks_lost_to_outage
      << " attacks unrecorded\n"
      << "  proxy channel:       " << proxy_failures << " failed attempts ("
      << proxy_retries << " retries, " << proxy_backoff_seconds
      << "s backoff), " << refinements_abandoned
      << " refinements abandoned\n"
      << "  downloads:           " << downloads_refused << " refused, "
      << downloads_corrupted << " bit-corrupted\n"
      << "  sandbox:             " << sandbox_failures
      << " timeouts/crashes (samples left unenriched)\n"
      << "  AV labeler:          " << av_label_gaps << " label gaps\n"
      << "  ingest delivery:     " << delivery_failures
      << " failed attempts (" << delivery_retries << " retries, "
      << delivery_backoff_seconds << "s backoff), "
      << delivery_retry_exhausted << " records spooled after exhaustion\n"
      << "  query service:       " << serve_slow_clients
      << " slow clients, " << serve_disconnects << " disconnects, "
      << serve_accept_failures << " accept failures\n";
  return out.str();
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  plan_.validate();
}

FaultReport FaultInjector::report() const noexcept {
  const auto sz = [](const std::atomic<std::uint64_t>& c) noexcept {
    return static_cast<std::size_t>(c.load(std::memory_order_relaxed));
  };
  FaultReport report;
  report.attacks_lost_to_outage = sz(counters_.attacks_lost_to_outage);
  report.sensor_checks = sz(counters_.sensor_checks);
  report.proxy_attempts = sz(counters_.proxy_attempts);
  report.proxy_failures = sz(counters_.proxy_failures);
  report.proxy_retries = sz(counters_.proxy_retries);
  report.refinements_abandoned = sz(counters_.refinements_abandoned);
  report.proxy_backoff_seconds =
      counters_.proxy_backoff_seconds.load(std::memory_order_relaxed);
  report.download_checks = sz(counters_.download_checks);
  report.downloads_refused = sz(counters_.downloads_refused);
  report.downloads_corrupted = sz(counters_.downloads_corrupted);
  report.sandbox_checks = sz(counters_.sandbox_checks);
  report.sandbox_failures = sz(counters_.sandbox_failures);
  report.av_label_checks = sz(counters_.av_label_checks);
  report.av_label_gaps = sz(counters_.av_label_gaps);
  report.delivery_checks = sz(counters_.delivery_checks);
  report.delivery_failures = sz(counters_.delivery_failures);
  report.delivery_retries = sz(counters_.delivery_retries);
  report.delivery_retry_exhausted = sz(counters_.delivery_retry_exhausted);
  report.delivery_backoff_seconds =
      counters_.delivery_backoff_seconds.load(std::memory_order_relaxed);
  report.serve_checks = sz(counters_.serve_checks);
  report.serve_slow_clients = sz(counters_.serve_slow_clients);
  report.serve_disconnects = sz(counters_.serve_disconnects);
  report.serve_accept_failures = sz(counters_.serve_accept_failures);
  return report;
}

bool FaultInjector::roll(std::string_view stage, std::uint64_t key,
                         double p) const noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  const std::uint64_t h =
      mix64(plan_.seed ^ fnv1a64(stage) ^ mix64(key ^ 0x9e37'79b9'7f4a'7c15ULL));
  // Top 53 bits -> uniform double in [0, 1).
  const double draw =
      static_cast<double>(h >> 11) * 0x1.0p-53;
  return draw < p;
}

bool FaultInjector::sensor_down(int location, int week) {
  counters_.sensor_checks.fetch_add(1, std::memory_order_relaxed);
  if (!plan_.sensor_down(location, week)) return false;
  counters_.attacks_lost_to_outage.fetch_add(1, std::memory_order_relaxed);
  return true;
}

FaultInjector::ProxyOutcome FaultInjector::try_proxy(std::uint64_t key) {
  ProxyOutcome outcome;
  outcome.attempts = 0;
  std::uint64_t failures = 0;
  std::int64_t backoff = plan_.proxy_backoff_base_seconds;
  outcome.refined = false;
  for (int attempt = 0; attempt <= plan_.proxy_max_retries; ++attempt) {
    ++outcome.attempts;
    if (!roll("proxy", mix64(key) + static_cast<std::uint64_t>(attempt),
              plan_.proxy_failure_probability)) {
      outcome.refined = true;
      break;
    }
    ++failures;
    if (attempt < plan_.proxy_max_retries) {
      outcome.backoff_seconds += backoff;  // exponential backoff schedule
      backoff *= 2;
    }
  }
  counters_.proxy_attempts.fetch_add(
      static_cast<std::uint64_t>(outcome.attempts), std::memory_order_relaxed);
  counters_.proxy_failures.fetch_add(failures, std::memory_order_relaxed);
  if (!outcome.refined) {
    counters_.refinements_abandoned.fetch_add(1, std::memory_order_relaxed);
  }
  counters_.proxy_backoff_seconds.fetch_add(outcome.backoff_seconds,
                                            std::memory_order_relaxed);
  counters_.proxy_retries.fetch_add(
      static_cast<std::uint64_t>(outcome.attempts - 1),
      std::memory_order_relaxed);
  return outcome;
}

DownloadFault FaultInjector::download_fault(std::uint64_t key) {
  counters_.download_checks.fetch_add(1, std::memory_order_relaxed);
  if (roll("download.refused", key, plan_.download_refused_probability)) {
    counters_.downloads_refused.fetch_add(1, std::memory_order_relaxed);
    return DownloadFault::kRefused;
  }
  if (roll("download.corrupt", key, plan_.download_corruption_probability)) {
    counters_.downloads_corrupted.fetch_add(1, std::memory_order_relaxed);
    return DownloadFault::kCorrupted;
  }
  return DownloadFault::kNone;
}

void FaultInjector::corrupt(std::vector<std::uint8_t>& bytes,
                            std::uint64_t key) const {
  if (bytes.empty()) return;
  // Damage the DOS magic so the image can never parse as PE, then flip
  // a deterministic scatter of payload bits (the wire-level damage).
  bytes[0] ^= 0xFF;
  if (bytes.size() > 1) bytes[1] ^= 0xFF;
  Rng rng{mix64(plan_.seed ^ fnv1a64("corrupt") ^ mix64(key))};
  const std::size_t flips = 4 + rng.index(28);
  for (std::size_t i = 0; i < flips; ++i) {
    bytes[rng.index(bytes.size())] ^=
        static_cast<std::uint8_t>(1u << rng.index(8));
  }
}

bool FaultInjector::sandbox_fails(std::uint64_t key) {
  counters_.sandbox_checks.fetch_add(1, std::memory_order_relaxed);
  if (roll("sandbox", key, plan_.sandbox_failure_probability)) {
    counters_.sandbox_failures.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

bool FaultInjector::delivery_fails(std::uint64_t key, int attempt) {
  counters_.delivery_checks.fetch_add(1, std::memory_order_relaxed);
  if (roll("ingest.delivery",
           mix64(key) + static_cast<std::uint64_t>(attempt),
           plan_.ingest_failure_probability)) {
    counters_.delivery_failures.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void FaultInjector::count_delivery_retry(std::int64_t backoff_seconds) {
  counters_.delivery_retries.fetch_add(1, std::memory_order_relaxed);
  counters_.delivery_backoff_seconds.fetch_add(backoff_seconds,
                                               std::memory_order_relaxed);
}

void FaultInjector::count_delivery_exhausted() {
  counters_.delivery_retry_exhausted.fetch_add(1, std::memory_order_relaxed);
}

bool FaultInjector::serve_slow_client(std::uint64_t key) {
  counters_.serve_checks.fetch_add(1, std::memory_order_relaxed);
  if (roll("serve.slow", key, plan_.serve_slow_client_probability)) {
    counters_.serve_slow_clients.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

bool FaultInjector::serve_disconnect(std::uint64_t key) {
  counters_.serve_checks.fetch_add(1, std::memory_order_relaxed);
  if (roll("serve.disconnect", key, plan_.serve_disconnect_probability)) {
    counters_.serve_disconnects.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

bool FaultInjector::serve_accept_fails(std::uint64_t key) {
  counters_.serve_checks.fetch_add(1, std::memory_order_relaxed);
  if (roll("serve.accept", key, plan_.serve_accept_failure_probability)) {
    counters_.serve_accept_failures.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

bool FaultInjector::av_label_gap(std::uint64_t key) {
  counters_.av_label_checks.fetch_add(1, std::memory_order_relaxed);
  if (roll("avlabel", key, plan_.av_label_gap_probability)) {
    counters_.av_label_gaps.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

}  // namespace repro::fault
