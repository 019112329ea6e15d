#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/units.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/scoped_timer.hpp"

namespace jstream {

namespace {

struct SimulatorTelemetry {
  telemetry::Counter& runs;
  telemetry::Counter& slots_total;
  telemetry::Histogram& run_latency_us;

  static SimulatorTelemetry& instance() {
    auto& registry = telemetry::global_registry();
    static SimulatorTelemetry probes{registry.counter("sim.runs"),
                                     registry.counter("sim.slots_total"),
                                     registry.histogram("sim.run_latency_us")};
    return probes;
  }
};

ScenarioConfig validated(ScenarioConfig config) {
  validate(config);
  return config;
}

}  // namespace

std::int64_t tail_flush_slots(const ScenarioConfig& cell) {
  return ceil_to_count(cell.radio.tail_duration_s() / cell.slot.tau_s) + 1;
}

CellGateway::CellGateway(const ScenarioConfig& cell, std::unique_ptr<Scheduler> scheduler,
                         SchedulingMode mode, std::shared_ptr<const SignalTraceSet> trace)
    : bs_(capacity_profile(cell)),
      framework_(InfoCollector(cell.slot, cell.link, cell.radio), std::move(scheduler),
                 mode, cell.users,
                 cell.backhaul_kbps > 0.0 ? cell.backhaul_kbps
                                          : std::numeric_limits<double>::infinity()),
      trace_(std::move(trace)) {
  if (trace_ != nullptr) {
    require(trace_->users() == cell.users, "trace population mismatch");
    require(trace_->slots() >= cell.max_slots, "trace shorter than the horizon");
    require(trace_->link_derived(), "trace is missing the derived link matrices");
  }
  // Degraded-cell faults: the schedule is a pure function of the config, so
  // cached-trace and live runs fault identically; an inactive config attaches
  // nothing and leaves the slot path byte-for-byte unfaulted.
  if (cell.faults.any()) {
    faults_ = std::make_unique<FaultInjector>(
        std::make_shared<const FaultSchedule>(make_fault_schedule(cell)));
    framework_.attach_fault_hook(faults_.get());
  }
}

void CellGateway::bind(std::span<UserEndpoint> endpoints, bool stamp_departures) const {
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    if (trace_ != nullptr) endpoints[i].attach_trace(trace_.get(), i);
    // Mid-stream aborts ride the session-departure path: the collector
    // raises the departed flag from the stamped slot, and the injector only
    // does its fault-local bookkeeping.
    if (stamp_departures && faults_ != nullptr) {
      endpoints[i].depart_at(faults_->schedule().departure_slot(i));
    }
  }
}

Simulator::Simulator(ScenarioConfig config, std::unique_ptr<Scheduler> scheduler,
                     SchedulingMode mode, std::shared_ptr<const SignalTraceSet> trace)
    : config_(validated(std::move(config))),
      gateway_(config_, std::move(scheduler), mode, std::move(trace)) {}

RunMetrics Simulator::run(bool keep_series) {
  std::vector<UserEndpoint> endpoints = build_endpoints(config_);
  return run(endpoints, keep_series);
}

RunMetrics Simulator::run(std::span<UserEndpoint> endpoints, bool keep_series) {
  require(!ran_, "simulator already ran");
  require(endpoints.size() == config_.users, "one endpoint per user");
  ran_ = true;
  gateway_.bind(endpoints, /*stamp_departures=*/true);
  Framework& framework = gateway_.framework();
  const BaseStation& bs = gateway_.bs();
  MetricsCollector metrics(config_.users, keep_series);

  const std::int64_t flush_slots = tail_flush_slots(config_);
  std::int64_t idle_streak = 0;

  auto& probes = SimulatorTelemetry::instance();
  probes.runs.add();
  std::int64_t slots_run = 0;
  {
    telemetry::ScopedTimer timer(probes.run_latency_us);
    for (std::int64_t slot = 0; slot < config_.max_slots; ++slot) {
      const SlotOutcome& outcome = framework.run_slot(slot, endpoints, bs);
      metrics.record_slot(framework.last_context(), outcome);
      ++slots_run;

      if (!config_.early_stop) continue;
      // A departed user never drains its remaining content, so for early-stop
      // purposes it counts as done the moment it aborts.
      bool all_done = true;
      for (const UserEndpoint& endpoint : endpoints) {
        if (endpoint.departed(slot)) continue;
        if (endpoint.active()) {
          all_done = false;
          break;
        }
      }
      idle_streak = all_done ? idle_streak + 1 : 0;
      if (idle_streak >= flush_slots) break;
    }
  }
  probes.slots_total.add(slots_run);
  RunMetrics result = metrics.finish();
  if (const SolveCertificate* cert = framework.scheduler().solve_certificate()) {
    result.has_certificate = true;
    result.cert_exact_slots = cert->exact_slots;
  }
  return result;
}

RunMetrics simulate(const ScenarioConfig& config, std::unique_ptr<Scheduler> scheduler,
                    bool keep_series, std::shared_ptr<const SignalTraceSet> trace) {
  Simulator simulator(config, std::move(scheduler), SchedulingMode::kBaseline,
                      std::move(trace));
  return simulator.run(keep_series);
}

}  // namespace jstream
