// Scaling study: wall-clock cost of a full simulation as the population
// grows well beyond the paper's 40 users. Establishes the simulator's and
// each scheduler's complexity envelope and contrasts the per-run channel
// path against the campaign engine's cached-trace path — at N=1000 the
// per-slot signal/link evaluations are a visible share of the run.
//
// The exact EMA DP used to be the wall here (the pre-SoA solver was skipped
// at N=1000: O(N*M) with M in the thousands meant hours). The production
// solver's separable fast path keeps the exact row tractable at every
// population, so it runs unskipped; the second table pins the before/after
// delta by timing the retired monotone-deque solver against the production
// solver on each population's steady-state slot.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/error.hpp"
#include "core/ema.hpp"
#include "gateway/framework.hpp"
#include "net/base_station.hpp"
#include "common/units.hpp"

using namespace jstream;
using namespace jstream::bench;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Mean ns per call of `body` over `iters` calls.
template <typename Fn>
double time_ns_per_iter(std::int64_t iters, Fn&& body) {
  const auto start = std::chrono::steady_clock::now();
  for (std::int64_t i = 0; i < iters; ++i) body();
  return 1e9 * seconds_since(start) / as_double(iters);
}

struct SolverDelta {
  std::size_t users = 0;
  std::int64_t m_units = 0;
  double before_us = 0.0;  ///< retired monotone-deque solver
  double after_us = 0.0;   ///< production solver
  double speedup = 0.0;
};

/// Warms an exact-EMA framework into steady state on `scenario`, then times
/// the retired deque solver vs the production solver on the resulting slot
/// instance (the "before/after" column of this PR's solver rework).
SolverDelta bench_solver_delta(const ScenarioConfig& scenario) {
  auto ema = std::make_unique<EmaScheduler>(EmaConfig{0.05});
  const EmaScheduler* ema_ptr = ema.get();
  std::vector<UserEndpoint> endpoints = build_endpoints(scenario);
  const BaseStation bs(capacity_profile(scenario));
  Framework framework(InfoCollector(scenario.slot, scenario.link, scenario.radio),
                      std::move(ema), SchedulingMode::kEnergyMinimization,
                      scenario.users);
  for (std::int64_t slot = 0; slot < 40; ++slot) {
    (void)framework.run_slot(slot, endpoints, bs);
  }

  const SlotContext& ctx = framework.last_context();
  const std::size_t n = ctx.user_count();
  const EmaSlotCosts costs =
      compute_ema_slot_costs(ctx, ema_ptr->queues(), ema_ptr->config().v_weight);
  const std::span<const std::int64_t> caps{ctx.soa.alloc_cap_units.data(), n};

  SolverDelta delta;
  delta.users = scenario.users;
  delta.m_units = ctx.capacity_units;

  EmaDpWorkspace ws;
  Allocation before_out;
  Allocation after_out;
  solve_min_cost_dp_deque(costs, caps, ctx.capacity_units, ws, before_out);
  solve_min_cost_dp(costs, caps, ctx.capacity_units, ws, after_out);
  double before_cost = 0.0;
  double after_cost = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    before_cost += ema_cost(costs, i, before_out.units[i]);
    after_cost += ema_cost(costs, i, after_out.units[i]);
  }
  require(std::abs(before_cost - after_cost) < 1e-9,
          "deque and production solvers disagree on the steady-state slot");

  const std::int64_t before_iters = scenario.users >= 1000 ? 10 : 100;
  delta.before_us = 1e-3 * time_ns_per_iter(before_iters, [&] {
    solve_min_cost_dp_deque(costs, caps, ctx.capacity_units, ws, before_out);
  });
  delta.after_us = 1e-3 * time_ns_per_iter(400, [&] {
    solve_min_cost_dp(costs, caps, ctx.capacity_units, ws, after_out);
  });
  delta.speedup = delta.after_us > 0.0 ? delta.before_us / delta.after_us : 0.0;
  return delta;
}

int run(int argc, const char* const* argv) {
  Cli cli = make_cli("bench_scaling_users", "simulation wall-clock vs population",
                     3000, 40);
  const CommonArgs args = parse_common(cli, argc, argv);

  Table table("scaling: full-run wall clock (s), per-run vs cached trace",
              {"users", "scheduler", "uncached (s)", "cached (s)", "speedup"});
  std::vector<std::vector<std::string>> csv_rows;
  std::vector<SolverDelta> deltas;
  for (std::size_t users : {20UL, 40UL, 80UL, 160UL, 1000UL}) {
    ScenarioConfig scenario = paper_scenario(users, args.seed);
    scenario.max_slots = args.slots;
    // Scale the pipe with the population so sessions still complete.
    scenario.capacity_kbps = 500.0 * as_double(users);

    // Warm the cache outside the timed region: the cached column isolates
    // the slot-path win once the substrate is resident (a campaign pays the
    // generation once across all schedulers and replications).
    const std::shared_ptr<const SignalTraceSet> trace =
        global_trace_cache().get_or_generate(scenario);

    // "ema" is the exact DP at every population — N = 1000 included, where
    // the separable fast path keeps the slot solve linear.
    for (const char* name : {"default", "rtma", "ema-fast", "ema"}) {
      SchedulerOptions options;
      options.ema.v_weight = 0.05;
      const ExperimentSpec spec{name, name, scenario, options};

      auto start = std::chrono::steady_clock::now();
      const RunMetrics uncached = run_experiment(spec, false);
      const double wall_uncached = seconds_since(start);

      start = std::chrono::steady_clock::now();
      const RunMetrics cached = run_experiment(spec, false, trace);
      const double wall_cached = seconds_since(start);
      require(cached.slots_run == uncached.slots_run &&
                  cached.total_energy_mj() == uncached.total_energy_mj(),
              "cached trace run diverged from the per-run path");
      if (std::string(name) == "ema") {
        require(cached.has_certificate && cached.cert_exact_slots == cached.slots_run,
                "exact EMA must count one exact solve per slot");
      }

      const double speedup = wall_cached > 0.0 ? wall_uncached / wall_cached : 0.0;
      table.row({std::to_string(users), name, format_double(wall_uncached, 3),
                 format_double(wall_cached, 3), format_double(speedup, 2) + "x"});
      csv_rows.push_back({std::to_string(users), name,
                          format_double(wall_uncached, 4),
                          format_double(wall_cached, 4),
                          format_double(cached.avg_energy_per_user_slot_mj(), 2)});
    }
    deltas.push_back(bench_solver_delta(scenario));
  }
  table.print();

  Table solver_table(
      "exact-EMA slot solver, before (deque DP) vs after (production solver)",
      {"users", "M units", "before (us)", "after (us)", "speedup"});
  std::vector<std::vector<std::string>> solver_rows;
  for (const SolverDelta& d : deltas) {
    solver_table.row({std::to_string(d.users), std::to_string(d.m_units),
                      format_double(d.before_us, 1), format_double(d.after_us, 1),
                      format_double(d.speedup, 1) + "x"});
    solver_rows.push_back({std::to_string(d.users), std::to_string(d.m_units),
                           format_double(d.before_us, 2),
                           format_double(d.after_us, 2),
                           format_double(d.speedup, 2)});
  }
  std::printf("\n");
  solver_table.print();

  maybe_write_csv(args.csv_dir, "scaling_users.csv",
                  {"users", "scheduler", "wall_uncached_s", "wall_cached_s", "pe_mj"},
                  csv_rows);
  maybe_write_csv(args.csv_dir, "scaling_ema_solver.csv",
                  {"users", "m_units", "before_us", "after_us", "speedup"},
                  solver_rows);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return guarded_main("bench_scaling_users", argc, argv, run);
}
