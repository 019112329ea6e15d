// Signal forecasting: the deterministic per-user signal trajectories a
// scenario will produce (perfect prediction), plus a tunable forecast error
// model for studying how prediction quality degrades a predictive scheduler
// (core/predictive_ema.hpp) against the offline oracle
// bound (sim/oracle.hpp).
//
// The error model is seed-pure: noisy forecasts are a deterministic function
// of (ScenarioConfig, ForecastErrorSpec), drawn from Rng streams split off a
// dedicated forecast root so enabling forecast noise never perturbs the
// endpoint construction streams (scenario_rng.split(i)) or the fault streams
// (kFaultRootStream). A zero-error spec is bit-identical to
// make_signal_forecast(config, slots) and consumes no random draws.
#pragma once

#include <cstdint>
#include <vector>

namespace jstream {

struct ScenarioConfig;

/// Forecast error model for one scenario. All knobs default to off; a
/// default-constructed spec yields the perfect forecast, bit for bit.
struct ForecastErrorSpec {
  /// I.i.d. Gaussian observation noise (dB) added per user x slot.
  double sigma_dbm = 0.0;
  /// Constant miscalibration offset (dB) added to every prediction.
  double bias_dbm = 0.0;
  /// Predictor lag: the forecast of slot n reports the true signal of slot
  /// n - staleness_slots (clamped at 0), modelling a pipeline that republishes
  /// measurements `staleness_slots` late.
  std::int64_t staleness_slots = 0;
  /// Couples the forecaster to the fault layer's stale-feedback family
  /// (FaultConfig::staleness_*): during a user's stale window the predictor's
  /// input feed freezes, so every in-window slot forecasts the last pre-window
  /// value. No-op when the scenario draws no stale windows.
  bool track_fault_staleness = false;
  /// Mixed into the forecast RNG stream: two specs differing only in salt
  /// draw independent noise over the same channel.
  std::uint64_t salt = 0;

  /// True when any knob can alter the perfect forecast; an inactive spec is
  /// the identity.
  [[nodiscard]] bool any_error() const noexcept {
    return sigma_dbm > 0.0 || bias_dbm != 0.0 || staleness_slots > 0 ||
           track_fault_staleness;
  }
};

/// Validates ranges; throws jstream::Error with a description.
void validate(const ForecastErrorSpec& spec);

/// FNV-1a over every ForecastErrorSpec field, 0 when the spec is inactive.
/// Part of the TraceKey (sim/trace_cache.hpp): a campaign sweeping forecast
/// error shares channel matrices only between cells whose forecasts agree,
/// and an inactive spec keys identically to a scenario predating the field.
[[nodiscard]] std::uint64_t forecast_fingerprint(const ForecastErrorSpec& spec) noexcept;

/// Per-user signal forecasts for `slots` slots, replayed deterministically
/// from the scenario seed (identical to what the simulator will feed the same
/// population).
[[nodiscard]] std::vector<std::vector<double>> make_signal_forecast(
    const ScenarioConfig& config, std::int64_t slots);

/// Noisy variant: applies `spec`'s staleness lag, fault-stale freezing, bias,
/// and Gaussian noise (in that order) on top of the perfect replay, clamping
/// to the legal signal range. An inactive spec returns the perfect forecast
/// bit-identically without consuming random draws.
[[nodiscard]] std::vector<std::vector<double>> make_signal_forecast(
    const ScenarioConfig& config, std::int64_t slots, const ForecastErrorSpec& spec);

}  // namespace jstream
