#include "fault/plan.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace repro::fault {

bool FaultPlan::sensor_down(int location, int week) const noexcept {
  return std::any_of(sensor_outages.begin(), sensor_outages.end(),
                     [&](const SensorOutage& outage) {
                       return outage.location == location &&
                              week >= outage.from_week &&
                              week < outage.to_week;
                     });
}

bool FaultPlan::empty() const noexcept {
  return pipeline_empty() && serve_slow_client_probability <= 0.0 &&
         serve_disconnect_probability <= 0.0 &&
         serve_accept_failure_probability <= 0.0;
}

bool FaultPlan::pipeline_empty() const noexcept {
  return sensor_outages.empty() && proxy_failure_probability <= 0.0 &&
         download_refused_probability <= 0.0 &&
         download_corruption_probability <= 0.0 &&
         sandbox_failure_probability <= 0.0 &&
         av_label_gap_probability <= 0.0 &&
         ingest_failure_probability <= 0.0;
}

void FaultPlan::validate() const {
  const auto check_probability = [](double p, const char* name) {
    if (p < 0.0 || p > 1.0) {
      throw ConfigError(std::string{"FaultPlan: "} + name +
                        " must be in [0, 1]");
    }
  };
  check_probability(proxy_failure_probability, "proxy_failure_probability");
  check_probability(download_refused_probability,
                    "download_refused_probability");
  check_probability(download_corruption_probability,
                    "download_corruption_probability");
  check_probability(sandbox_failure_probability,
                    "sandbox_failure_probability");
  check_probability(av_label_gap_probability, "av_label_gap_probability");
  check_probability(ingest_failure_probability, "ingest_failure_probability");
  check_probability(serve_slow_client_probability,
                    "serve_slow_client_probability");
  check_probability(serve_disconnect_probability,
                    "serve_disconnect_probability");
  check_probability(serve_accept_failure_probability,
                    "serve_accept_failure_probability");
  if (proxy_max_retries < 0) {
    throw ConfigError("FaultPlan: proxy_max_retries must be >= 0");
  }
  if (proxy_backoff_base_seconds < 0) {
    throw ConfigError("FaultPlan: proxy_backoff_base_seconds must be >= 0");
  }
  for (const SensorOutage& outage : sensor_outages) {
    if (outage.location < 0 || outage.from_week < 0 ||
        outage.to_week < outage.from_week) {
      throw ConfigError("FaultPlan: malformed sensor outage window");
    }
  }
}

FaultPlan FaultPlan::scaled(double factor) const {
  const auto scale = [factor](double p) {
    return std::clamp(p * factor, 0.0, 1.0);
  };
  FaultPlan plan = *this;
  plan.proxy_failure_probability = scale(proxy_failure_probability);
  plan.download_refused_probability = scale(download_refused_probability);
  plan.download_corruption_probability =
      scale(download_corruption_probability);
  plan.sandbox_failure_probability = scale(sandbox_failure_probability);
  plan.av_label_gap_probability = scale(av_label_gap_probability);
  plan.ingest_failure_probability = scale(ingest_failure_probability);
  plan.serve_slow_client_probability = scale(serve_slow_client_probability);
  plan.serve_disconnect_probability = scale(serve_disconnect_probability);
  plan.serve_accept_failure_probability =
      scale(serve_accept_failure_probability);
  return plan;
}

FaultPlan FaultPlan::paper_calibrated() {
  FaultPlan plan;
  plan.seed = 0x4fa1'7000'0000'2010ULL;
  // Two multi-week sensor blackouts, as real distributed deployments
  // accumulate over a 17-month window.
  plan.sensor_outages = {SensorOutage{4, 10, 14}, SensorOutage{17, 40, 43}};
  plan.proxy_failure_probability = 0.05;
  plan.proxy_max_retries = 2;
  // Beyond truncation, Nepenthes modules occasionally fail outright or
  // deliver damaged bytes (the paper's "truncated or corrupted").
  plan.download_refused_probability = 0.02;
  plan.download_corruption_probability = 0.015;
  plan.sandbox_failure_probability = 0.01;
  plan.av_label_gap_probability = 0.03;
  plan.ingest_failure_probability = 0.03;
  // Serving faults, calibrated like the rest: rare enough that a live
  // daemon stays useful, frequent enough that every degradation path
  // (deadline timeouts, dropped connections, accept hiccups) actually
  // fires under load.
  plan.serve_slow_client_probability = 0.02;
  plan.serve_disconnect_probability = 0.01;
  plan.serve_accept_failure_probability = 0.01;
  return plan;
}

FaultPlan FaultPlan::random_plan(std::uint64_t seed, int weeks,
                                 int locations) {
  Rng rng{mix64(seed ^ 0xc4a0'5000'0000'0001ULL)};
  FaultPlan plan;
  plan.seed = rng.next();
  const std::size_t outages = rng.index(4);
  for (std::size_t i = 0; i < outages; ++i) {
    SensorOutage outage;
    outage.location =
        static_cast<int>(rng.index(static_cast<std::size_t>(
            std::max(1, locations))));
    outage.from_week = static_cast<int>(
        rng.index(static_cast<std::size_t>(std::max(1, weeks))));
    outage.to_week =
        std::min(weeks, outage.from_week + 1 + static_cast<int>(rng.index(8)));
    plan.sensor_outages.push_back(outage);
  }
  plan.proxy_failure_probability = rng.real() * 0.9;
  plan.proxy_max_retries = static_cast<int>(rng.index(4));
  plan.proxy_backoff_base_seconds = static_cast<int>(rng.index(10));
  plan.download_refused_probability = rng.real() * 0.35;
  plan.download_corruption_probability = rng.real() * 0.35;
  plan.sandbox_failure_probability = rng.real() * 0.5;
  plan.av_label_gap_probability = rng.real() * 0.5;
  // Drawn after every pre-existing field so older chaos-sweep seeds
  // keep producing the exact plans they always did.
  plan.ingest_failure_probability = rng.real() * 0.5;
  plan.serve_slow_client_probability = rng.real() * 0.5;
  plan.serve_disconnect_probability = rng.real() * 0.5;
  plan.serve_accept_failure_probability = rng.real() * 0.5;
  return plan;
}

}  // namespace repro::fault
