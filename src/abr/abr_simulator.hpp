// ABR simulation: segmented adaptive-bitrate clients served by the same
// gateway slot engine as the paper's fixed-rate sessions. simulate_abr builds
// the scenario's endpoints, attaches one AbrClient per endpoint as its content
// model (gateway/user_endpoint.hpp), and runs the batch Simulator's loop over
// them, so ABR slots get the validator, the fault layer, the backhaul limit,
// telemetry and the allocation-free slot path. Any jstream::Scheduler can
// serve ABR traffic: the cross-layer snapshot reports the rate of the
// representation each client is currently downloading.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "abr/client.hpp"
#include "gateway/scheduler.hpp"
#include "sim/scenario.hpp"

namespace jstream {

/// ABR-specific scenario knobs layered on a base ScenarioConfig (whose video
/// size fields are ignored — content is defined by duration and the ladder).
struct AbrScenarioConfig {
  ScenarioConfig base;                   ///< radio/link/capacity/users/seed/faults
  double duration_min_s = 400.0;         ///< content duration range (uniform)
  double duration_max_s = 900.0;
  double segment_s = 4.0;                ///< DASH-style segment length
  std::vector<double> ladder_kbps{300.0, 375.0, 450.0, 525.0, 600.0};
  std::string selector = "buffer-based"; ///< quality policy for every client
  double throughput_ewma_alpha = 0.2;    ///< download-rate estimator smoothing
};

/// Per-user ABR results.
struct AbrUserResult {
  AbrQoe qoe;
  double duration_s = 0.0;
  double trans_mj = 0.0;
  double tail_mj = 0.0;
  bool playback_finished = false;
};

/// Run-level ABR results.
struct AbrRunMetrics {
  std::vector<AbrUserResult> per_user;
  std::int64_t slots_run = 0;

  [[nodiscard]] double mean_quality_kbps() const;
  [[nodiscard]] double mean_rebuffer_s() const;     ///< per user, totals
  [[nodiscard]] double mean_switches() const;
  [[nodiscard]] double mean_qoe_score() const;
  [[nodiscard]] double total_energy_mj() const;
  [[nodiscard]] double completion_rate() const;
};

/// Runs `scheduler` over the ABR scenario (deterministic per base.seed).
[[nodiscard]] AbrRunMetrics simulate_abr(const AbrScenarioConfig& config,
                                         std::unique_ptr<Scheduler> scheduler);

}  // namespace jstream
