// Workload A, ema-static-n1000: the online EM-mode decision path.
//
// Closed loop over consecutive seeds: each seed builds paper_scenario(1000,
// seed) with 500 KB/s of capacity per user and exact `ema` (V = 0.05), then
// runs its opening kSlotsPerSeed slots through Framework::run_slot, one call
// after the other. The separable fast path answers ~98% of those slots; the
// full DP slots (25-40 ms each) that fire in the opening few hundred slots
// set the tail.
#include <algorithm>
#include <memory>
#include <vector>

#include "baselines/factory.hpp"
#include "core/ema.hpp"
#include "gateway/framework.hpp"
#include "harness.hpp"
#include "sim/scenario.hpp"
#include "telemetry/registry.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kUsers = 1000;
constexpr std::int64_t kSlotsPerSeed = 500;
constexpr std::int64_t kTauNs = 1'000'000'000;
/// Allocation digest of the default seed's unit, recorded at the commit that
/// introduced this benchmark.
constexpr std::uint64_t kReferenceDigest = 0xda72b0b737ca1254ULL;

struct Cell {
  const jstream::EmaDpWorkspace* dp = nullptr;
  jstream::ScenarioConfig scenario;
  std::vector<jstream::UserEndpoint> endpoints;
  std::unique_ptr<jstream::BaseStation> bs;
  std::unique_ptr<jstream::Framework> framework;
};

Cell build_cell(std::uint64_t seed, Inject inject, CallLog* log) {
  Cell cell;
  cell.scenario = jstream::paper_scenario(kUsers, seed);
  cell.scenario.capacity_kbps = 500.0 * static_cast<double>(kUsers);
  cell.endpoints = jstream::build_endpoints(cell.scenario);
  cell.bs = std::make_unique<jstream::BaseStation>(jstream::capacity_profile(cell.scenario));
  jstream::SchedulerOptions options;
  options.ema.v_weight = 0.05;
  std::unique_ptr<jstream::Scheduler> ema = jstream::make_scheduler("ema", options);
  cell.dp = &dynamic_cast<const jstream::EmaScheduler&>(*ema).dp_workspace();
  cell.framework = std::make_unique<jstream::Framework>(
      jstream::InfoCollector(cell.scenario.slot, cell.scenario.link, cell.scenario.radio),
      maybe_decorate(std::move(ema), inject, log),
      jstream::SchedulingMode::kEnergyMinimization, kUsers);
  return cell;
}

/// Measurements of one seed's unit.
struct Unit {
  std::int64_t setup_ns = 0;
  std::int64_t slot_ns_sum = 0;
  std::uint64_t allocs = 0;
  std::uint64_t digest = 0;
  std::int64_t failed = 0;
  std::int64_t dp_solves = 0;
  std::int64_t separable_hits = 0;
};

/// Runs one seed. Slot times go to `slot_us` when given; with `log` the
/// decorator records every solve and `spans` receives unit/slot/solve spans.
Unit run_unit(std::uint64_t seed, Inject inject, CallLog* log, SpanBuffer* spans,
              std::vector<double>* slot_us) {
  Unit unit;
  const std::int64_t setup_start = now_ns();
  Cell cell = build_cell(seed, inject, log);
  unit.setup_ns = now_ns() - setup_start;
  if (log != nullptr) log->clear();

  Fnv digest;
  const std::int64_t unit_start = now_ns();
  std::vector<std::int64_t> slot_bounds;
  if (spans != nullptr) slot_bounds.reserve(2 * kSlotsPerSeed);
  for (std::int64_t slot = 0; slot < kSlotsPerSeed; ++slot) {
    const std::uint64_t allocs_before = allocations();
    const std::int64_t start = now_ns();
    (void)cell.framework->run_slot(slot, cell.endpoints, *cell.bs);
    const std::int64_t end = now_ns();
    unit.allocs += allocations() - allocs_before;
    unit.slot_ns_sum += end - start;
    if (slot_us != nullptr) slot_us->push_back(static_cast<double>(end - start) / 1e3);
    if (spans != nullptr) {
      slot_bounds.push_back(start);
      slot_bounds.push_back(end);
    }
    if (end - start > kTauNs) ++unit.failed;

    // Output check (outside the timed call): constraints (1) and (2), then
    // fold the decision into the unit's allocation digest.
    const jstream::SlotContext& ctx = cell.framework->last_context();
    const jstream::Allocation& alloc = cell.framework->last_allocation();
    std::int64_t total = 0;
    bool ok = alloc.units.size() == ctx.users.size();
    for (std::size_t i = 0; ok && i < alloc.units.size(); ++i) {
      ok = alloc.units[i] >= 0 && alloc.units[i] <= ctx.users[i].alloc_cap_units;
      total += alloc.units[i];
    }
    if (!ok || total > ctx.capacity_units) ++unit.failed;
    digest.add(alloc.units.data(), alloc.units.size() * sizeof(std::int64_t));
  }
  const std::int64_t unit_end = now_ns();
  unit.digest = digest.value();

  unit.dp_solves = cell.dp->dp_solves;
  unit.separable_hits = cell.dp->separable_hits;

  if (spans != nullptr && log != nullptr) {
    const std::int64_t parent = spans->add(SpanBuffer::kUnit, -1, unit_start, unit_end);
    for (std::size_t s = 0; s < slot_bounds.size() / 2; ++s) {
      const std::int64_t slot_span =
          spans->add(SpanBuffer::kSlot, parent, slot_bounds[2 * s], slot_bounds[2 * s + 1]);
      if (s < log->count) spans->add(SpanBuffer::kSolve, slot_span, log->start[s], log->end[s]);
    }
  }
  return unit;
}

}  // namespace

RunResult run_ema_static(const Options& options) {
  RunResult result;
  if (!options.trace) {
    const Measured measured =
        measure(options, result, 1, true, kReferenceDigest, [&](std::uint64_t seed) {
          Sample sample;
          sample.op_us.reserve(kSlotsPerSeed);
          const Unit unit = run_unit(seed, options.inject, nullptr, nullptr, &sample.op_us);
          sample.setup_s = static_cast<double>(unit.setup_ns) / 1e9;
          sample.user_slots = static_cast<double>(kUsers * kSlotsPerSeed);
          sample.digest = unit.digest;
          sample.attempted = kSlotsPerSeed;
          sample.failed = unit.failed;
          return sample;
        });
    emit_end_to_end(result, measured, 0.995, false);
    result.note("op", "Framework::run_slot");
    return result;
  }

  // Traced run: plain (telemetry on), traced (decorator + spans) and
  // telemetry-off variants over identical work.
  SpanBuffer spans(span_capacity(options));
  CallLog log(kSlotsPerSeed + 8);
  std::vector<double> slot_us;
  std::vector<double> solve_us;
  std::vector<double> self_us;
  std::uint64_t allocs = 0;
  std::int64_t slots = 0;
  std::vector<std::pair<std::string, double>> layer;
  const auto run = [](const Unit& unit) {
    return VariantRun{unit.digest, static_cast<double>(unit.slot_ns_sum), kSlotsPerSeed,
                      unit.failed};
  };
  const std::vector<Variant> variants = {
      [&](std::uint64_t seed, bool) {
        return run(run_unit(seed, Inject::kNone, nullptr, nullptr, nullptr));
      },
      [&](std::uint64_t seed, bool first) {
        const std::size_t first_slot = slot_us.size();
        if (first) jstream::telemetry::global_registry().reset_values();
        const Unit unit = run_unit(seed, Inject::kPassThrough, &log,
                                   spans.enabled() ? &spans : nullptr, &slot_us);
        VariantRun traced = run(unit);
        if (log.count != static_cast<std::size_t>(kSlotsPerSeed)) ++traced.failed;
        for (std::size_t s = 0; s < log.count && first_slot + s < slot_us.size(); ++s) {
          const double solve = static_cast<double>(log.end[s] - log.start[s]) / 1e3;
          solve_us.push_back(solve);
          self_us.push_back(slot_us[first_slot + s] - solve);
        }
        allocs += unit.allocs;
        slots += kSlotsPerSeed;
        if (first) {
          layer.emplace_back("core.dp_solves", static_cast<double>(unit.dp_solves));
          layer.emplace_back("core.separable_hits", static_cast<double>(unit.separable_hits));
          const RegistryCounts counts = RegistryCounts::read();
          for (const char* name :
               {"constraint.eq1.link_cap_clips", "constraint.eq2.capacity_clips"}) {
            layer.emplace_back(name, static_cast<double>(counts.get(name)));
          }
        }
        return traced;
      },
      [&](std::uint64_t seed, bool) {
        jstream::telemetry::set_enabled(false);
        const Unit unit = run_unit(seed, Inject::kNone, nullptr, nullptr, nullptr);
        jstream::telemetry::set_enabled(true);
        return run(unit);
      },
  };
  const std::vector<double> ns =
      measure_traced(options, result, 1, kReferenceDigest, variants, spans);
  double solve_sum = 0.0;
  for (const double s : solve_us) solve_sum += s;
  double slot_sum = 0.0;
  for (const double s : slot_us) slot_sum += s;
  layer.emplace_back("core.solve_us.p50", percentile(solve_us, 0.5));
  layer.emplace_back("core.solve_us.p99", percentile(solve_us, 0.99));
  layer.emplace_back("core.solve_us.p999", percentile(solve_us, 0.999));
  layer.emplace_back("core.solve_share", slot_sum > 0.0 ? solve_sum / slot_sum : 0.0);
  layer.emplace_back("gateway.self_us.p50", percentile(self_us, 0.5));
  layer.emplace_back("allocs_per_slot",
                     static_cast<double>(allocs) / static_cast<double>(slots));
  layer.emplace_back("trace.overhead_frac", ns[1] / ns[0] - 1.0);
  layer.emplace_back("telemetry.overhead_frac", ns[0] / ns[2] - 1.0);
  emit_layer_metrics(result, layer);
  return result;
}

}  // namespace perfbench
