// The slotted simulation engine: builds a scenario's endpoints, wires the
// gateway framework around a scheduler, and runs the per-slot loop while
// streaming outcomes into a MetricsCollector. This is the one slot loop over a
// fixed population: ABR runs (abr/abr_simulator.hpp) are this loop over
// endpoints with segmented clients attached, and the service layer drives the
// same CellGateway slot by slot.
#pragma once

#include <memory>
#include <span>

#include "gateway/framework.hpp"
#include "net/base_station.hpp"
#include "radio/signal_trace.hpp"
#include "sim/fault.hpp"
#include "sim/metrics.hpp"
#include "sim/scenario.hpp"

namespace jstream {

/// Slots a run continues after its last session ends, so outstanding RRC
/// tails are charged (Eq. 4 energy does not vanish when content runs out).
[[nodiscard]] std::int64_t tail_flush_slots(const ScenarioConfig& cell);

/// The gateway side of one cell, wired the same way for every loop over
/// Framework::run_slot: the base station's S(n), the framework with the
/// cell's backhaul (0 = unlimited), the degraded-cell fault injector when
/// the config has faults, and the optional precomputed channel trace.
class CellGateway {
 public:
  /// `trace`, when set, must cover the cell: same population, at least
  /// max_slots slots, link matrices derived. Reading it is bit-identical to
  /// driving the endpoints' SignalModels.
  CellGateway(const ScenarioConfig& cell, std::unique_ptr<Scheduler> scheduler,
              SchedulingMode mode, std::shared_ptr<const SignalTraceSet> trace);

  /// Points endpoint i at trace row i. With `stamp_departures`, also stamps
  /// the fault schedule's mid-stream aborts on the endpoints (a fixed
  /// population; the service layer stamps them per bound session instead).
  void bind(std::span<UserEndpoint> endpoints, bool stamp_departures) const;

  [[nodiscard]] Framework& framework() noexcept { return framework_; }
  [[nodiscard]] const BaseStation& bs() const noexcept { return bs_; }
  /// The cell's fault schedule; null on a benign cell.
  [[nodiscard]] const FaultSchedule* fault_schedule() const noexcept {
    return faults_ != nullptr ? &faults_->schedule() : nullptr;
  }

 private:
  BaseStation bs_;
  Framework framework_;
  std::shared_ptr<const SignalTraceSet> trace_;
  std::unique_ptr<FaultInjector> faults_;
};

/// Runs one scheduler over one scenario.
class Simulator {
 public:
  /// Takes ownership of the scheduler. `mode` is recorded on the framework
  /// for introspection; it does not alter behaviour. `trace` optionally
  /// supplies the precomputed channel substrate (see CellGateway).
  Simulator(ScenarioConfig config, std::unique_ptr<Scheduler> scheduler,
            SchedulingMode mode = SchedulingMode::kBaseline,
            std::shared_ptr<const SignalTraceSet> trace = nullptr);

  /// Runs to completion over build_endpoints(config()): until max_slots, or
  /// (with early_stop) until every session has finished and the RRC tails
  /// have been flushed. `keep_series` controls whether per-slot series are
  /// retained in the result.
  [[nodiscard]] RunMetrics run(bool keep_series = true);

  /// The same run over caller-built endpoints, one per user (simulate_abr
  /// passes build_endpoints' output with AbrClients attached). The endpoints
  /// are left in their end-of-run state. A simulator runs once.
  [[nodiscard]] RunMetrics run(std::span<UserEndpoint> endpoints, bool keep_series);

  [[nodiscard]] const ScenarioConfig& config() const noexcept { return config_; }

 private:
  ScenarioConfig config_;
  CellGateway gateway_;
  bool ran_ = false;
};

/// Convenience wrapper: build, run, and return metrics in one call.
[[nodiscard]] RunMetrics simulate(const ScenarioConfig& config,
                                  std::unique_ptr<Scheduler> scheduler,
                                  bool keep_series = true,
                                  std::shared_ptr<const SignalTraceSet> trace = nullptr);

}  // namespace jstream
