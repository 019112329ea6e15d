// EMA-Fast — slope-greedy solver for EMA's per-slot problem (ablation).
//
// The reduced per-user cost is linear in phi for phi >= 1 (see EmaSlotCosts),
// so the slot problem is a knapsack over linear segments with an activation
// jump at phi = 0. The greedy picks, per user, the unconstrained best choice
// among {0, 1, cap}, then fits choices under the capacity by descending
// gain-per-unit, shrinking negative-slope users when the budget binds.
//
// This is not always exactly optimal (the activation jump makes the problem
// non-convex), but property tests show it matches the DP objective within a
// small tolerance while running in O(N log N) instead of the exact solver's
// O(N * M); bench_ablation_ema_solver quantifies the trade-off.
#pragma once

#include <string>
#include <vector>

#include "core/ema.hpp"

namespace jstream {

/// Reusable scratch for solve_min_cost_greedy (see EmaDpWorkspace for the
/// ownership pattern).
struct EmaGreedyWorkspace {
  /// One user's unconstrained best active choice.
  struct Want {
    std::size_t user = 0;
    std::int64_t phi = 0;
    double gain = 0.0;  ///< idle_cost - slope*phi: improvement over staying idle
  };
  std::vector<Want> wants;
  std::vector<std::size_t> active;
};

/// Greedy variant of the slot solver, exposed standalone for testing.
[[nodiscard]] Allocation solve_min_cost_greedy(const EmaSlotCosts& costs,
                                               std::span<const std::int64_t> caps,
                                               std::int64_t capacity_units);

/// Workspace variant: solves into `out`; allocation-free once warmed up.
void solve_min_cost_greedy(const EmaSlotCosts& costs,
                           std::span<const std::int64_t> caps,
                           std::int64_t capacity_units, EmaGreedyWorkspace& ws,
                           Allocation& out);

/// EMA with the greedy slot solver (identical queue dynamics to EmaScheduler).
class EmaFastScheduler final : public EmaScheduler {
 public:
  explicit EmaFastScheduler(EmaConfig config = {}) : EmaScheduler(config) {}

  [[nodiscard]] std::string name() const override { return "ema-fast"; }

  /// The greedy solver is a heuristic without an optimality bound, so it
  /// publishes no certificate (the base class would count exact solves).
  [[nodiscard]] const SolveCertificate* solve_certificate() const override {
    return nullptr;
  }

 protected:
  void solve_slot(const EmaSlotCosts& costs, std::span<const std::int64_t> caps,
                  std::int64_t capacity_units, Allocation& out) override {
    solve_min_cost_greedy(costs, caps, capacity_units, greedy_ws_, out);
  }

 private:
  EmaGreedyWorkspace greedy_ws_;
};

}  // namespace jstream
