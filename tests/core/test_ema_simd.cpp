// Differential fuzz for the production exact EMA solver.
//
// The separable fast path and the restructured DP row kernel (int16 and
// int32 choice tables) must both be *bit-identical* to the retired
// monotone-deque solver and the paper-literal reference DP — same units for
// every user, not just the same objective, so every tie-break is pinned.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "core/ema.hpp"
#include "net/allocation.hpp"
#include "common/units.hpp"
#include "telemetry/registry.hpp"

namespace jstream {
namespace {

double total_cost(const EmaSlotCosts& costs, const Allocation& alloc) {
  double sum = 0.0;
  for (std::size_t i = 0; i < alloc.units.size(); ++i) {
    sum += ema_cost(costs, i, alloc.units[i]);
  }
  return sum;
}

struct Instance {
  EmaSlotCosts costs;
  std::vector<std::int64_t> caps;
  std::int64_t capacity = 0;
};

// Mirrors the regimes compute_ema_slot_costs produces (positive/negative
// slopes, zero caps, zero bases) plus adversarial near-ties: with probability
// 1/4 the slope is snapped to 0 or to an exact copy of a neighbor's, forcing
// the tie-break paths and the separable margin fallback.
Instance random_instance(Rng& rng, std::size_t max_users, std::int64_t max_cap) {
  Instance inst;
  const auto n = checked_size(
      rng.uniform_int(0, checked_index(max_users)));
  inst.costs.idle_cost.resize(n);
  inst.costs.active_base.resize(n);
  inst.costs.slope.resize(n);
  inst.caps.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    inst.costs.idle_cost[i] = rng.uniform(0.0, 5.0);
    inst.costs.active_base[i] =
        rng.uniform(0.0, 1.0) < 0.5 ? 0.0 : rng.uniform(0.0, 2.0);
    inst.costs.slope[i] = rng.uniform(-1.0, 1.0);
    const double tie_roll = rng.uniform(0.0, 1.0);
    if (tie_roll < 0.1) {
      inst.costs.slope[i] = 0.0;  // flat active segment: every phi ties
    } else if (tie_roll < 0.25 && i > 0) {
      inst.costs.slope[i] = inst.costs.slope[i - 1];
      inst.costs.idle_cost[i] = inst.costs.idle_cost[i - 1];
      inst.costs.active_base[i] = inst.costs.active_base[i - 1];
    }
    inst.caps[i] = rng.uniform(0.0, 1.0) < 0.1 ? 0 : rng.uniform_int(0, max_cap);
  }
  inst.capacity = rng.uniform_int(0, 2 * max_cap);
  return inst;
}

// A slack-capacity instance: the sum of unconstrained optima always fits, so
// the separable fast path is eligible whenever its tie margins clear.
Instance slack_instance(Rng& rng, std::size_t users, std::int64_t max_cap) {
  Instance inst;
  inst.costs.idle_cost.resize(users);
  inst.costs.active_base.resize(users);
  inst.costs.slope.resize(users);
  inst.caps.resize(users);
  std::int64_t cap_sum = 0;
  for (std::size_t i = 0; i < users; ++i) {
    inst.costs.idle_cost[i] = rng.uniform(0.0, 5.0);
    inst.costs.active_base[i] = rng.uniform(0.0, 2.0);
    inst.costs.slope[i] = rng.uniform(-1.0, 1.0);
    inst.caps[i] = rng.uniform_int(1, max_cap);
    cap_sum += inst.caps[i];
  }
  inst.capacity = cap_sum + rng.uniform_int(0, max_cap);
  return inst;
}

// A DP slot shaped like ema-static-n1000's: N in [min_users, max_users],
// about 75% positive slopes (users that want one unit or none), caps up to
// `max_cap`, and a capacity near a quarter of the cap sum so constraint (2)
// binds. One user in ten copies its neighbor's costs (forced exact ties).
Instance static_shaped_instance(Rng& rng, std::size_t min_users, std::size_t max_users,
                                std::int64_t max_cap) {
  Instance inst;
  const auto n = checked_size(
      rng.uniform_int(checked_index(min_users), checked_index(max_users)));
  inst.costs.idle_cost.resize(n);
  inst.costs.active_base.resize(n);
  inst.costs.slope.resize(n);
  inst.caps.resize(n);
  std::int64_t cap_sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    inst.costs.idle_cost[i] = rng.uniform(0.0, 5.0);
    inst.costs.active_base[i] =
        rng.uniform(0.0, 1.0) < 0.5 ? 0.0 : rng.uniform(0.0, 2.0);
    inst.costs.slope[i] =
        rng.uniform(0.0, 1.0) < 0.75 ? rng.uniform(0.0, 3.0) : rng.uniform(-1.0, 0.0);
    if (i > 0 && rng.uniform(0.0, 1.0) < 0.1) {
      inst.costs.idle_cost[i] = inst.costs.idle_cost[i - 1];
      inst.costs.active_base[i] = inst.costs.active_base[i - 1];
      inst.costs.slope[i] = inst.costs.slope[i - 1];
    }
    inst.caps[i] = rng.uniform(0.0, 1.0) < 0.02 ? 0 : rng.uniform_int(1, max_cap);
    cap_sum += inst.caps[i];
  }
  inst.capacity = cap_sum / 4 + rng.uniform_int(0, max_cap);
  return inst;
}

double instance_margin(const Instance& inst) {
  double scale = 0.0;
  for (std::size_t i = 0; i < inst.caps.size(); ++i) {
    scale += std::abs(inst.costs.idle_cost[i]) + std::abs(inst.costs.active_base[i]) +
             std::abs(inst.costs.slope[i]) * as_double(inst.caps[i]);
  }
  return ema_tie_margin(inst.caps.size(), scale);
}

// Moves about one user in six onto a boundary of the cap reduction or the
// separable path: |slope| at 1/2, 1 or 2 tie margins (either sign), the
// idle-minus-best-active gap at +-1/2, 1 or 2 margins, or idle == active(1)
// exactly. The margin depends on the instance's scale, which the snapping
// moves, so the snap is re-applied until it settles.
void snap_near_margin(Rng& rng, Instance& inst) {
  struct Snap {
    std::size_t user;
    int kind;       // 0: slope, 1: idle-active gap, 2: idle == active(1)
    double factor;  // signed multiple of the margin
  };
  const double factors[] = {0.5, 1.0, 2.0};
  std::vector<Snap> snaps;
  for (std::size_t i = 0; i < inst.caps.size(); ++i) {
    if (inst.caps[i] == 0 || rng.uniform(0.0, 1.0) >= 1.0 / 6.0) continue;
    const double sign = rng.uniform(0.0, 1.0) < 0.5 ? -1.0 : 1.0;
    const double factor = factors[checked_size(rng.uniform_int(0, 2))];
    snaps.push_back({i, static_cast<int>(rng.uniform_int(0, 2)), sign * factor});
  }
  for (int pass = 0; pass < 3; ++pass) {
    const double margin = instance_margin(inst);
    for (const Snap& snap : snaps) {
      const std::size_t i = snap.user;
      const double base = inst.costs.active_base[i];
      double& slope = inst.costs.slope[i];
      if (snap.kind == 0) {
        slope = snap.factor * margin;
      } else {
        const double active_one = base + slope;
        const double active_cap = base + slope * as_double(inst.caps[i]);
        inst.costs.idle_cost[i] =
            snap.kind == 2 ? active_one
                           : std::min(active_one, active_cap) + snap.factor * margin;
      }
    }
  }
}

void expect_identical_units(const Allocation& got, const Allocation& want,
                            int trial, const char* what) {
  ASSERT_EQ(got.units.size(), want.units.size()) << what << " trial " << trial;
  for (std::size_t i = 0; i < got.units.size(); ++i) {
    ASSERT_EQ(got.units[i], want.units[i])
        << what << " trial " << trial << " user " << i;
  }
}

// The core contract: the production solver reproduces the deque
// solver unit-for-unit across 1000 randomized instances with forced exact
// ties, and both stay cost-optimal against the paper-literal reference.
//
// Unit-level equality is asserted against the *deque* solver — today's
// production behavior, pinned by the golden digests — not the reference: the
// deque breaks exact ties through sliding-window keys (prev[j] - slope*j)
// while the reference compares full candidates (prev[j] + base + slope*phi),
// so FP-exact ties can legitimately resolve to different argmins of the same
// optimal cost.
TEST(EmaSimdSolver, FuzzBitIdenticalToDequeAndCostOptimal) {
  Rng rng(20260808);
  EmaDpWorkspace fast_ws;
  EmaDpWorkspace deque_ws;
  Allocation fast;
  Allocation deque_out;
  for (int trial = 0; trial < 1000; ++trial) {
    Rng trial_rng = rng.split(static_cast<std::uint64_t>(trial));
    const Instance inst = random_instance(trial_rng, 14, 24);
    solve_min_cost_dp(inst.costs, inst.caps, inst.capacity, fast_ws, fast);
    solve_min_cost_dp_deque(inst.costs, inst.caps, inst.capacity, deque_ws,
                            deque_out);
    const Allocation ref =
        solve_min_cost_dp_reference(inst.costs, inst.caps, inst.capacity);
    expect_identical_units(fast, deque_out, trial, "block-vs-deque");
    ASSERT_NEAR(total_cost(inst.costs, fast), total_cost(inst.costs, ref), 1e-9)
        << "trial " << trial;
  }
}

// On tie-free instances (continuous cost draws, no snapping) all three
// solvers share a unique argmin: assert full unit-level agreement.
TEST(EmaSimdSolver, FuzzTieFreeInstancesMatchReferenceExactly) {
  Rng rng(1618);
  EmaDpWorkspace fast_ws;
  EmaDpWorkspace deque_ws;
  Allocation fast;
  Allocation deque_out;
  for (int trial = 0; trial < 500; ++trial) {
    Rng trial_rng = rng.split(static_cast<std::uint64_t>(trial));
    Instance inst;
    const auto n = checked_size(trial_rng.uniform_int(0, 14));
    inst.costs.idle_cost.resize(n);
    inst.costs.active_base.resize(n);
    inst.costs.slope.resize(n);
    inst.caps.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      inst.costs.idle_cost[i] = trial_rng.uniform(0.0, 5.0);
      inst.costs.active_base[i] = trial_rng.uniform(0.0, 2.0);
      inst.costs.slope[i] = trial_rng.uniform(-1.0, 1.0);
      inst.caps[i] =
          trial_rng.uniform(0.0, 1.0) < 0.1 ? 0 : trial_rng.uniform_int(0, 24);
    }
    inst.capacity = trial_rng.uniform_int(0, 48);
    solve_min_cost_dp(inst.costs, inst.caps, inst.capacity, fast_ws, fast);
    solve_min_cost_dp_deque(inst.costs, inst.caps, inst.capacity, deque_ws,
                            deque_out);
    const Allocation ref =
        solve_min_cost_dp_reference(inst.costs, inst.caps, inst.capacity);
    expect_identical_units(deque_out, ref, trial, "deque-vs-reference");
    expect_identical_units(fast, ref, trial, "block-vs-reference");
  }
}

// Same contract on slack instances, where the separable fast path fires: the
// O(N) path must agree with the full DP unit-for-unit, and near-tie instances
// must fall back rather than guess.
TEST(EmaSimdSolver, SeparableFastPathBitIdenticalToReference) {
  Rng rng(555);
  EmaDpWorkspace ws;
  Allocation fast;
  std::int64_t separable_before = 0;
  for (int trial = 0; trial < 400; ++trial) {
    Rng trial_rng = rng.split(static_cast<std::uint64_t>(trial));
    const Instance inst = slack_instance(trial_rng, 12, 10);
    solve_min_cost_dp(inst.costs, inst.caps, inst.capacity, ws, fast);
    const Allocation ref =
        solve_min_cost_dp_reference(inst.costs, inst.caps, inst.capacity);
    expect_identical_units(fast, ref, trial, "separable-vs-reference");
    separable_before = ws.separable_hits;
  }
  // The path must actually engage on slack instances, not silently fall back.
  EXPECT_GT(separable_before, 0);
}

// The cap reduction and reachable-prefix rows on instances shaped like the
// N = 1000 slots that run the full DP, with users snapped onto the margin
// boundaries: unit-exact against the deque solver, and the reduction must
// actually cut rows.
TEST(EmaSimdSolver, CapReductionOnStaticShapedSlotsMatchesDeque) {
  Rng rng(4242);
  EmaDpWorkspace fast_ws;
  EmaDpWorkspace deque_ws;
  Allocation fast;
  Allocation deque_out;
  for (int trial = 0; trial < 40; ++trial) {
    Rng trial_rng = rng.split(static_cast<std::uint64_t>(trial));
    Instance inst = static_shaped_instance(trial_rng, 200, 1000, 40);
    if (trial % 2 == 1) snap_near_margin(trial_rng, inst);
    solve_min_cost_dp(inst.costs, inst.caps, inst.capacity, fast_ws, fast);
    solve_min_cost_dp_deque(inst.costs, inst.caps, inst.capacity, deque_ws,
                            deque_out);
    expect_identical_units(fast, deque_out, trial, "static-shaped-vs-deque");
  }
  EXPECT_GT(fast_ws.dp_solves, 30);
  EXPECT_GT(fast_ws.reduced_rows, 0);
}

// Small instances where every user sits near a margin boundary or in a
// forced exact tie, many times over: the reduction must never cut an option
// the deque solver's chosen path (or its tie-breaks) depends on.
TEST(EmaSimdSolver, CapReductionNearMarginMatchesDequeAndReference) {
  Rng rng(777);
  EmaDpWorkspace fast_ws;
  EmaDpWorkspace deque_ws;
  Allocation fast;
  Allocation deque_out;
  for (int trial = 0; trial < 3000; ++trial) {
    Rng trial_rng = rng.split(static_cast<std::uint64_t>(trial));
    Instance inst = trial % 2 == 0 ? static_shaped_instance(trial_rng, 1, 16, 12)
                                   : random_instance(trial_rng, 16, 12);
    snap_near_margin(trial_rng, inst);
    solve_min_cost_dp(inst.costs, inst.caps, inst.capacity, fast_ws, fast);
    solve_min_cost_dp_deque(inst.costs, inst.caps, inst.capacity, deque_ws,
                            deque_out);
    expect_identical_units(fast, deque_out, trial, "near-margin-vs-deque");
    const Allocation ref =
        solve_min_cost_dp_reference(inst.costs, inst.caps, inst.capacity);
    ASSERT_NEAR(total_cost(inst.costs, fast), total_cost(inst.costs, ref), 1e-9)
        << "trial " << trial;
  }
  EXPECT_GT(fast_ws.dp_solves, 1000);
  EXPECT_GT(fast_ws.reduced_rows, 0);
}

// The tie margin keeps its relative 1e-12 floor at the populations the
// golden and benchmark runs use, and grows with n past ~1100 users so it
// stays above the DP's ~n*eps*scale FP error bound.
TEST(EmaSimdSolver, TieMarginFloorAndPopulationTerm) {
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  EXPECT_EQ(ema_tie_margin(1000, 1.0), 1e-12);
  EXPECT_EQ(ema_tie_margin(1000, 250.0), 250.0 * 1e-12);
  EXPECT_EQ(ema_tie_margin(1, 3.0), 3.0 * 1e-12);
  EXPECT_EQ(ema_tie_margin(110000, 2.0), 2.0 * (4.0 * 110000.0 * kEps));
  EXPECT_GT(ema_tie_margin(110000, 1.0), 1e-12);
}

// The solver-path counters reach the telemetry registry: one separable or
// DP tick per solve, and the DP's computed cells.
TEST(EmaSimdSolver, SolvePathCountersReachRegistry) {
  auto& registry = telemetry::global_registry();
  const std::int64_t separable0 = registry.counter("ema.solve.separable").value();
  const std::int64_t dp0 = registry.counter("ema.solve.dp").value();
  const std::int64_t cells0 = registry.counter("ema.dp.cells").value();
  Rng rng(31);
  const Instance slack = slack_instance(rng, 12, 10);
  EmaDpWorkspace ws;
  Allocation out;
  solve_min_cost_dp(slack.costs, slack.caps, slack.capacity, ws, out);
  const Instance bound = static_shaped_instance(rng, 300, 300, 40);
  solve_min_cost_dp(bound.costs, bound.caps, bound.capacity, ws, out);
  ASSERT_EQ(ws.separable_hits, 1);
  ASSERT_EQ(ws.dp_solves, 1);
  EXPECT_EQ(registry.counter("ema.solve.separable").value() - separable0, 1);
  EXPECT_EQ(registry.counter("ema.solve.dp").value() - dp0, 1);
  const std::int64_t cells = registry.counter("ema.dp.cells").value() - cells0;
  EXPECT_GT(cells, 0);
  // Reachable prefixes only: never more than the full n x (capacity + 1).
  EXPECT_LE(cells, 300 * (bound.capacity + 1));
}

// An all-zero-cost instance ties every allocation; the DP's tie-breaks pick
// all-idle, and the separable path must reproduce exactly that.
TEST(EmaSimdSolver, AllZeroCostsResolveToAllIdle) {
  Instance inst;
  inst.costs.idle_cost.assign(6, 0.0);
  inst.costs.active_base.assign(6, 0.0);
  inst.costs.slope.assign(6, 0.0);
  inst.caps.assign(6, 4);
  inst.capacity = 12;
  const Allocation fast = solve_min_cost_dp(inst.costs, inst.caps, inst.capacity);
  const Allocation ref =
      solve_min_cost_dp_reference(inst.costs, inst.caps, inst.capacity);
  expect_identical_units(fast, ref, 0, "zero-cost");
  for (const std::int64_t phi : fast.units) EXPECT_EQ(phi, 0);
}

// Workspace-reuse differential: one long-lived workspace (typical scheduler
// usage) solves a drifting slot sequence that alternates narrow instances
// (int16 choice table) with wide ones whose caps pass the int16 range (int32
// table), while n shrinks and regrows and some slots repeat the previous
// instance verbatim. Every solve must match the deque solver and a
// fresh-workspace solve unit for unit, so no buffer sized or filled by an
// earlier solve can leak into a later one.
TEST(EmaSimdSolver, WarmStartSequenceMatchesColdSolves) {
  Rng rng(90210);
  constexpr std::size_t kMaxUsers = 12;
  const std::size_t sizes[] = {12, 5, 9, 1, 12, 3, 7, 2};
  // Per-user costs drift slot to slot like Lyapunov-driven slopes; most stay
  // negative (the user wants its whole cap), so the capacity binds and the
  // full DP answers nearly every slot.
  std::vector<double> idle(kMaxUsers);
  std::vector<double> base(kMaxUsers);
  std::vector<double> slope(kMaxUsers);
  for (std::size_t i = 0; i < kMaxUsers; ++i) {
    idle[i] = rng.uniform(0.0, 5.0);
    base[i] = rng.uniform(0.0, 2.0);
    slope[i] = rng.uniform(-1.0, i % 4 == 3 ? 1.0 : -0.05);
  }
  EmaDpWorkspace reuse_ws;
  EmaDpWorkspace deque_ws;
  Allocation reused;
  Allocation deque_out;
  Instance inst;
  int wide_dp_solves = 0;
  int narrow_dp_solves = 0;
  for (int slot = 0; slot < 64; ++slot) {
    const bool wide = slot % 2 == 1;
    // Every fifth slot re-solves the previous instance unchanged.
    if (slot % 5 != 4) {
      const std::size_t n = sizes[checked_size(slot / 2) % std::size(sizes)];
      inst.costs.idle_cost.resize(n);
      inst.costs.active_base.resize(n);
      inst.costs.slope.resize(n);
      inst.caps.resize(n);
      std::int64_t cap_sum = 0;
      for (std::size_t i = 0; i < n; ++i) {
        slope[i] += rng.uniform(-0.02, 0.02);
        inst.costs.idle_cost[i] = idle[i];
        inst.costs.active_base[i] = base[i];
        inst.costs.slope[i] = slope[i];
        inst.caps[i] = wide ? rng.uniform_int(20000, 40000) : rng.uniform_int(1, 24);
        cap_sum += inst.caps[i];
      }
      if (wide) {
        // Pin one cap past the int16 range on a user that wants all of it
        // (negative slope, so the cap reduction keeps the cap) so the wide
        // table is required.
        const auto i = checked_size(rng.uniform_int(0, checked_index(n) - 1));
        inst.caps[i] = 40000;
        inst.costs.slope[i] = -std::abs(inst.costs.slope[i]) - 0.05;
      }
      inst.capacity = cap_sum / 3 + 1;
    }
    const std::int64_t dp_before = reuse_ws.dp_solves;
    solve_min_cost_dp(inst.costs, inst.caps, inst.capacity, reuse_ws, reused);
    solve_min_cost_dp_deque(inst.costs, inst.caps, inst.capacity, deque_ws,
                            deque_out);
    const Allocation fresh =
        solve_min_cost_dp(inst.costs, inst.caps, inst.capacity);
    expect_identical_units(reused, deque_out, slot, "reused-vs-deque");
    expect_identical_units(reused, fresh, slot, "reused-vs-fresh");
    if (reuse_ws.dp_solves > dp_before) {
      const std::int64_t cap_max = *std::max_element(inst.caps.begin(), inst.caps.end());
      if (cap_max > 32767) {
        ++wide_dp_solves;
      } else {
        ++narrow_dp_solves;
      }
    }
  }
  // Both choice-table widths actually ran the DP, interleaved on one
  // workspace.
  EXPECT_GT(wide_dp_solves, 10);
  EXPECT_GT(narrow_dp_solves, 10);
}

}  // namespace
}  // namespace jstream
