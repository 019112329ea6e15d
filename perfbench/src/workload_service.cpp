// Workload C, ema-service-loaded: the online service path under load.
//
// Closed loop over consecutive seeds: each seed runs one ServiceSimulator
// (population 500, Poisson arrivals at 4 sessions per slot, 20-60 MB
// sessions, accept-all admission, the "medium" fault level of
// bench_fault_sweep) under exact `ema` (V = 0.05) with capacity
// 0.6 x 450 KB/s per population slot, timing every step(). At 4 arrivals
// per slot the capacity constraint binds on every slot after a ~150-slot
// fill, so the full DP runs on most slots and the per-step median is steady
// (at 3 it binds only in bursts that follow the fault layer's capacity
// dips, and the median flips between ~0.2 and ~2 ms), while the session
// boundary, recycled reset_user, fault degrade/reconcile and stale-clip
// telemetry all sit on the slot path.
#include <memory>
#include <vector>

#include "baselines/factory.hpp"
#include "core/ema.hpp"
#include "harness.hpp"
#include "session/service.hpp"
#include "session/service_campaign.hpp"
#include "telemetry/registry.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kPopulation = 500;
constexpr std::int64_t kHorizon = 500;
constexpr std::int64_t kTauNs = 1'000'000'000;
/// service_digest of the default seed's unit, recorded at the commit that
/// introduced this benchmark.
constexpr std::uint64_t kReferenceDigest = 0x302e67fdf61c3e79ULL;

jstream::ServiceConfig make_config(std::uint64_t seed) {
  jstream::ServiceConfig config;
  config.cell = jstream::paper_scenario(kPopulation, seed);
  config.cell.max_slots = kHorizon;
  config.cell.video_min_mb = 20.0;
  config.cell.video_max_mb = 60.0;
  config.cell.capacity_kbps = 0.6 * 450.0 * static_cast<double>(kPopulation);
  // bench_fault_sweep's "medium" intensity.
  jstream::FaultConfig& faults = config.cell.faults;
  faults.outage_rate_per_kslot = 5.0;
  faults.outage_min_slots = 5;
  faults.outage_max_slots = 30;
  faults.staleness_rate_per_kslot = 10.0;
  faults.staleness_max_slots = 30;
  faults.departure_fraction = 0.25;
  faults.capacity_rate_per_kslot = 2.0;
  faults.capacity_scale = 0.5;
  config.arrivals.kind = jstream::ArrivalKind::kPoisson;
  config.arrivals.rate_per_slot = 4.0;
  config.admission.kind = jstream::AdmissionKind::kAcceptAll;
  config.warmup_slots = 100;
  return config;
}

struct Unit {
  std::int64_t setup_ns = 0;
  std::int64_t step_ns_sum = 0;
  std::int64_t steps = 0;
  std::uint64_t allocs = 0;
  std::uint64_t digest = 0;
  std::int64_t failed = 0;
  std::int64_t dp_solves = 0;
  std::int64_t separable_hits = 0;
};

/// Runs one seed's service run. Step times go to `step_us`; with `log` the
/// decorator records every solve, `solve_us`/`self_us` get the per-step split
/// and `spans` the unit/step/solve spans.
Unit run_unit(std::uint64_t seed, CallLog* log, SpanBuffer* spans, std::vector<double>* step_us,
              std::vector<double>* solve_us, std::vector<double>* self_us) {
  Unit unit;
  const std::int64_t setup_start = now_ns();
  jstream::SchedulerOptions options;
  options.ema.v_weight = 0.05;
  std::unique_ptr<jstream::Scheduler> ema = jstream::make_scheduler("ema", options);
  const auto& ws = dynamic_cast<const jstream::EmaScheduler&>(*ema).dp_workspace();
  jstream::ServiceSimulator simulator(make_config(seed),
                                      maybe_decorate(std::move(ema), Inject::kNone, log),
                                      jstream::SchedulingMode::kEnergyMinimization);
  unit.setup_ns = now_ns() - setup_start;
  if (log != nullptr) log->clear();

  const std::int64_t unit_start = now_ns();
  const std::int64_t parent =
      spans != nullptr ? spans->add(SpanBuffer::kUnit, -1, unit_start, unit_start) : -1;
  while (simulator.slot() < kHorizon) {
    const std::size_t solves_before = log != nullptr ? log->count : 0;
    const std::uint64_t allocs_before = allocations();
    const std::int64_t start = now_ns();
    (void)simulator.step();
    const std::int64_t end = now_ns();
    unit.allocs += allocations() - allocs_before;
    unit.step_ns_sum += end - start;
    ++unit.steps;
    if (end - start > kTauNs) ++unit.failed;
    const double step = static_cast<double>(end - start) / 1e3;
    if (step_us != nullptr) step_us->push_back(step);
    if (log != nullptr) {
      const std::int64_t step_span =
          spans != nullptr ? spans->add(SpanBuffer::kSlot, parent, start, end) : -1;
      double solve = 0.0;
      for (std::size_t c = solves_before; c < log->count; ++c) {
        solve += static_cast<double>(log->end[c] - log->start[c]) / 1e3;
        if (spans != nullptr) spans->add(SpanBuffer::kSolve, step_span, log->start[c], log->end[c]);
      }
      if (solve_us != nullptr) solve_us->push_back(solve);
      if (self_us != nullptr) self_us->push_back(step - solve);
    }
  }
  if (spans != nullptr) spans->close(parent, now_ns());
  unit.dp_solves = ws.dp_solves;
  unit.separable_hits = ws.separable_hits;

  const jstream::ServiceResult run = simulator.finish();
  const jstream::ServiceMetrics& s = run.service;
  // Output check: every offered session is admitted, rejected or blocked,
  // and every admitted one has ended or is still in flight.
  if (s.offered != s.admitted + s.rejected + s.blocked) ++unit.failed;
  if (s.admitted != s.completed + s.aborted + s.in_flight_at_end) ++unit.failed;
  if (s.slots_run != unit.steps) ++unit.failed;
  unit.digest = jstream::service_digest(run);
  return unit;
}

}  // namespace

RunResult run_service_loaded(const Options& options) {
  RunResult result;
  if (!options.trace) {
    const Measured measured =
        measure(options, result, 1, true, kReferenceDigest, [](std::uint64_t seed) {
          Sample sample;
          sample.op_us.reserve(kHorizon);
          const Unit unit = run_unit(seed, nullptr, nullptr, &sample.op_us, nullptr, nullptr);
          sample.setup_s = static_cast<double>(unit.setup_ns) / 1e9;
          sample.user_slots = static_cast<double>(kPopulation) * static_cast<double>(unit.steps);
          sample.digest = unit.digest;
          sample.attempted = unit.steps;
          sample.failed = unit.failed;
          return sample;
        });
    emit_end_to_end(result, measured, 0.95, false);
    result.note("op", "ServiceSimulator::step");
    return result;
  }

  // Traced run: plain, traced and telemetry-off variants over identical
  // work (as in workload A).
  SpanBuffer spans(span_capacity(options));
  CallLog log(kHorizon + 8);
  std::vector<double> step_us;
  std::vector<double> solve_us;
  std::vector<double> self_us;
  std::uint64_t allocs = 0;
  std::int64_t steps = 0;
  std::vector<std::pair<std::string, double>> layer;
  const auto run = [](const Unit& unit) {
    return VariantRun{unit.digest, static_cast<double>(unit.step_ns_sum), unit.steps,
                      unit.failed};
  };
  const std::vector<Variant> variants = {
      [&](std::uint64_t seed, bool) {
        return run(run_unit(seed, nullptr, nullptr, nullptr, nullptr, nullptr));
      },
      [&](std::uint64_t seed, bool first) {
        if (first) jstream::telemetry::global_registry().reset_values();
        const Unit unit = run_unit(seed, &log, spans.enabled() ? &spans : nullptr, &step_us,
                                   &solve_us, &self_us);
        allocs += unit.allocs;
        steps += unit.steps;
        if (first) {
          const RegistryCounts counts = RegistryCounts::read();
          const double offered = static_cast<double>(counts.get("admission.offered"));
          const double admitted = static_cast<double>(counts.get("admission.accepted"));
          layer.emplace_back("session.offered", offered);
          layer.emplace_back("session.admitted", admitted);
          layer.emplace_back("session.blocked",
                             static_cast<double>(counts.get("admission.blocked")));
          layer.emplace_back("session.admit_ratio", offered > 0.0 ? admitted / offered : 0.0);
          for (const auto& [name, value] : counts.values) {
            if (name.rfind("fault.", 0) == 0 || name.rfind("constraint.", 0) == 0) {
              layer.emplace_back(name, static_cast<double>(value));
            }
          }
          layer.emplace_back("core.dp_solves", static_cast<double>(unit.dp_solves));
          layer.emplace_back("core.separable_hits", static_cast<double>(unit.separable_hits));
        }
        return run(unit);
      },
      [&](std::uint64_t seed, bool) {
        jstream::telemetry::set_enabled(false);
        const Unit unit = run_unit(seed, nullptr, nullptr, nullptr, nullptr, nullptr);
        jstream::telemetry::set_enabled(true);
        return run(unit);
      },
  };
  const std::vector<double> ns =
      measure_traced(options, result, 1, kReferenceDigest, variants, spans);
  double solve_sum = 0.0;
  for (const double s : solve_us) solve_sum += s;
  double step_sum = 0.0;
  for (const double s : step_us) step_sum += s;
  layer.emplace_back("core.solve_us.p50", percentile(solve_us, 0.5));
  layer.emplace_back("core.solve_us.p99", percentile(solve_us, 0.99));
  layer.emplace_back("core.solve_us.p999", percentile(solve_us, 0.999));
  layer.emplace_back("core.solve_share", step_sum > 0.0 ? solve_sum / step_sum : 0.0);
  layer.emplace_back("session.step_self_us.p50", percentile(self_us, 0.5));
  layer.emplace_back("allocs_per_slot",
                     static_cast<double>(allocs) / static_cast<double>(steps));
  layer.emplace_back("trace.overhead_frac", ns[1] / ns[0] - 1.0);
  layer.emplace_back("telemetry.overhead_frac", ns[0] / ns[2] - 1.0);
  emit_layer_metrics(result, layer);
  return result;
}

}  // namespace perfbench
