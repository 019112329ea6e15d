// Workload D, abr-rtma-n1000: the ABR slot loop (src/abr/abr_simulator.cpp).
//
// Closed loop over consecutive seeds: each seed runs simulate_abr with the
// buffer-based quality selector and `rtma` at N = 1000 and capacity
// 0.8 x 450 KB/s per user. simulate_abr is one call, so its slots are timed
// from outside through the scheduler decorator: one ABR slot is the interval
// between two consecutive scheduler calls. This is the second slot engine
// next to Framework::run_slot, and the workload that covers RTM mode.
#include <memory>
#include <vector>

#include "abr/abr_simulator.hpp"
#include "baselines/factory.hpp"
#include "harness.hpp"
#include "sim/scenario.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kUsers = 1000;
/// ABR-totals digest of the default seed's unit, recorded at the commit that
/// introduced this benchmark.
constexpr std::uint64_t kReferenceDigest = 0x82513c49714b1f6cULL;

struct Unit {
  std::int64_t setup_ns = 0;   ///< call entry -> first scheduler call (with a log)
  std::int64_t call_ns = 0;    ///< the whole simulate_abr call
  std::int64_t slots_run = 0;
  std::uint64_t allocs = 0;    ///< from the first scheduler call to return (with a log)
  std::uint64_t digest = 0;
  std::int64_t failed = 0;
};

/// Runs one seed. With `log` the scheduler runs inside the decorator and
/// every call is logged; without, simulate_abr gets the bare scheduler and
/// only the whole call is timed.
Unit run_unit(std::uint64_t seed, CallLog* log) {
  Unit unit;
  if (log != nullptr) log->clear();
  const std::int64_t entry = now_ns();
  jstream::AbrScenarioConfig config;
  config.base = jstream::paper_scenario(kUsers, seed);
  config.base.capacity_kbps = 0.8 * 450.0 * static_cast<double>(kUsers);
  config.selector = "buffer-based";
  const jstream::AbrRunMetrics metrics = jstream::simulate_abr(
      config, maybe_decorate(jstream::make_scheduler("rtma"), Inject::kNone, log));
  const std::int64_t exit = now_ns();
  const std::uint64_t allocs_exit = allocations();
  unit.call_ns = exit - entry;
  unit.slots_run = metrics.slots_run;

  // Output check: one decision per slot, one result per user, sane totals;
  // then the ABR-totals digest.
  if (metrics.per_user.size() != kUsers) ++unit.failed;
  if (log != nullptr) {
    if (log->count == 0 || log->count + static_cast<std::size_t>(log->overflow) !=
                               static_cast<std::size_t>(metrics.slots_run)) {
      ++unit.failed;
      return unit;
    }
    unit.setup_ns = log->start[0] - entry;
    unit.allocs = allocs_exit - log->allocs_at_first;
  }
  Fnv digest;
  digest.i64(metrics.slots_run);
  for (const jstream::AbrUserResult& u : metrics.per_user) {
    if (!(u.qoe.rebuffer_s >= 0.0) || !(u.trans_mj >= 0.0) || !(u.tail_mj >= 0.0)) {
      ++unit.failed;
    }
    digest.f64(u.qoe.quality_seconds_kbps);
    digest.i64(u.qoe.switches);
    digest.f64(u.qoe.rebuffer_s);
    digest.f64(u.duration_s);
    digest.f64(u.trans_mj);
    digest.f64(u.tail_mj);
    digest.i64(u.playback_finished ? 1 : 0);
  }
  unit.digest = digest.value();
  return unit;
}

/// Appends the unit's slot intervals (between consecutive scheduler calls).
void slot_intervals(const CallLog& log, std::vector<double>& slot_us) {
  for (std::size_t c = 1; c < log.count; ++c) {
    slot_us.push_back(static_cast<double>(log.start[c] - log.start[c - 1]) / 1e3);
  }
}

}  // namespace

RunResult run_abr_rtma(const Options& options) {
  RunResult result;
  CallLog log(20000);
  if (!options.trace) {
    // simulate_abr's slots can only be seen through the decorator, so these
    // figures include its cost (two clock reads and a log write per slot);
    // the traced run's trace.overhead_frac measures exactly that cost.
    const Measured measured =
        measure(options, result, 1, true, kReferenceDigest, [&](std::uint64_t seed) {
          const Unit unit = run_unit(seed, &log);
          Sample sample;
          slot_intervals(log, sample.op_us);
          sample.setup_s = static_cast<double>(unit.setup_ns) / 1e9;
          sample.user_slots =
              static_cast<double>(kUsers) * static_cast<double>(sample.op_us.size());
          sample.digest = unit.digest;
          sample.attempted = unit.slots_run;
          sample.failed = unit.failed;
          return sample;
        });
    emit_end_to_end(result, measured, 0.99, false);
    result.note("op", "one ABR slot inside simulate_abr");
    return result;
  }

  // Traced run: the bare program and the decorated one, each timed over the
  // whole simulate_abr call; the decorated one also yields a span per slot
  // and per scheduler call, built after the call returns.
  SpanBuffer spans(span_capacity(options));
  std::vector<double> slot_us;
  std::vector<double> solve_us;
  double solve_ns = 0.0;
  std::uint64_t allocs = 0;
  std::int64_t slots = 0;
  const auto run = [](const Unit& unit) {
    return VariantRun{unit.digest, static_cast<double>(unit.call_ns), unit.slots_run,
                      unit.failed};
  };
  const std::vector<Variant> variants = {
      [&](std::uint64_t seed, bool) { return run(run_unit(seed, nullptr)); },
      [&](std::uint64_t seed, bool) {
        const Unit unit = run_unit(seed, &log);
        if (unit.failed != 0) return run(unit);
        allocs += unit.allocs;
        slots += unit.slots_run;
        slot_intervals(log, slot_us);
        const std::int64_t parent =
            spans.add(SpanBuffer::kUnit, -1, log.start[0], log.end[log.count - 1]);
        for (std::size_t c = 0; c < log.count; ++c) {
          const double ns = static_cast<double>(log.end[c] - log.start[c]);
          solve_ns += ns;
          solve_us.push_back(ns / 1e3);
          if (c + 1 < log.count) {
            spans.add(SpanBuffer::kSlot, parent, log.start[c], log.start[c + 1]);
          }
          spans.add(SpanBuffer::kSolve, parent, log.start[c], log.end[c]);
        }
        return run(unit);
      },
  };
  const std::vector<double> ns =
      measure_traced(options, result, 1, kReferenceDigest, variants, spans);
  double slot_sum = 0.0;
  for (const double s : slot_us) slot_sum += s;
  const std::vector<std::pair<std::string, double>> layer{
      {"core.solve_us.p50", percentile(solve_us, 0.5)},
      {"core.solve_us.p99", percentile(solve_us, 0.99)},
      {"core.solve_us.p999", percentile(solve_us, 0.999)},
      {"core.solve_share", slot_sum > 0.0 ? solve_ns / 1e3 / slot_sum : 0.0},
      {"abr.slot_us.p50", percentile(slot_us, 0.5)},
      {"abr.slot_us.p99", percentile(slot_us, 0.99)},
      {"allocs_per_slot",
       slots > 0 ? static_cast<double>(allocs) / static_cast<double>(slots) : 0.0},
      {"trace.overhead_frac", ns[1] / ns[0] - 1.0},
  };
  emit_layer_metrics(result, layer);
  return result;
}

}  // namespace perfbench
