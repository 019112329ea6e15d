// EMA — Energy Minimization Algorithm (Algorithm 2, Section V).
//
// Minimizes the average energy PE subject to the rebuffering bound PC <= Omega
// (Eq. 13-14) via Lyapunov drift-plus-penalty: each slot solves
//
//   min sum_i f(i, phi_i),
//   f(i, phi) = V * E_i(n) + PC_i(n) * (tau - t_i(n)),   t_i = delta*phi/p_i
//
// subject to constraints (1) and (2), where E_i is the Eq. 3 transmission
// energy for phi >= 1 and the Eq. 4 tail increment for phi = 0, and PC_i is
// the Eq. 16 virtual rebuffering queue. V trades energy against rebuffering
// (Theorem 1: PE <= E* + B/V, PC <= (B + V*E*)/eps).
//
// The per-slot problem is a grouped knapsack. The paper's DP (Algorithm 2
// steps 3-18) is O(N * M * phi_max); because each user's active cost is
// linear in phi, the inner phi-loop is a sliding-window minimum
//
//   min_{1 <= phi <= cap} prev[m - phi] + slope*phi
//     = slope*m + min_{m - cap <= j <= m - 1} (prev[j] - slope*j),
//
// so the row is solvable in O(M). `solve_min_cost_dp` is the production
// exact solver (docs/PERFORMANCE.md, "EMA at scale"). It runs two layers:
//
//   * a tie-margin-guarded separable fast path: when every user's
//     unconstrained optimum fits under the capacity — the common case at
//     large N — the coupled DP provably decomposes per user, O(N) total;
//   * otherwise the full DP, one row kernel call per user. An O(N) pass
//     first cuts each user's cap where an exchange argument clears the same
//     tie margin (idle-dominant users to 0, slope > margin to 1), and each
//     row computes only its reachable prefix [0, sum of effective caps so
//     far]. Rows stream over cache-line-aligned SoA lanes (common/simd.hpp)
//     with restrict-qualified pointers, and the packed per-row choice table
//     narrows to int16 whenever every effective cap fits, halving the DP's
//     dominant store traffic.
//     (A branch-free block prefix/suffix window-minimum was evaluated and
//     lost to the deque — its running-min scans are serial dependences and
//     its auxiliary arrays triple the row's memory traffic — so the monotone
//     deque remains the window kernel inside the restructured row.)
//
// The PR2 monotone-deque solver is kept verbatim as `solve_min_cost_dp_deque`
// (the before/after baseline and differential-test anchor), and the
// paper-literal triple loop as `solve_min_cost_dp_reference`. The production
// solver matches the deque solver allocation-for-allocation down to the last
// tie-break; tests/core/test_ema_simd.cpp enforces exact unit equality over
// randomized instances, including forced exact ties.
//
// EmaFastScheduler in ema_fast.hpp solves the same slot problem with a
// slope-greedy heuristic (ablation; see DESIGN.md).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/simd.hpp"
#include "core/lyapunov.hpp"
#include "gateway/scheduler.hpp"
#include "common/units.hpp"

namespace jstream {

/// EMA configuration.
struct EmaConfig {
  /// Lyapunov penalty weight V (1/mJ scale). Larger V favors energy saving
  /// over rebuffering (Section V). The default keeps the average rebuffering
  /// near the default strategy's level on the paper scenario (beta ~ 1); use
  /// calibrate_v_for_rebuffer to target a specific bound.
  double v_weight = 0.05;
};

/// Per-user costs of the slot problem, with the common PC_i*tau term dropped
/// (it does not affect the argmin). The cost of transmitting is linear in phi
/// under both tail-accounting semantics (see radio/rrc.hpp):
///   cost(0)        = idle_cost[i] = V * E_tail_slot(i)
///   cost(phi >= 1) = active_base[i] + slope[i]*phi
/// with Eq. 5 accounting: active_base = 0,
///   slope = V*P(sig_i)*delta - PC_i*delta/p_i;
/// with continuous-time Eq. 4: active_base = V*Pd*tau,
///   slope = V*delta*(P(sig_i) - Pd/v(sig_i)) - PC_i*delta/p_i.
/// The three arrays are cache-line-aligned SoA lanes so the DP row setup and
/// the separable fast path stream over them linearly.
struct EmaSlotCosts {
  simd::AlignedVec<double> idle_cost;
  simd::AlignedVec<double> active_base;
  simd::AlignedVec<double> slope;
};

/// Evaluates the reduced per-user cost of allocating `phi` units.
[[nodiscard]] inline double ema_cost(const EmaSlotCosts& costs, std::size_t user,
                                     std::int64_t phi) noexcept {
  return phi == 0 ? costs.idle_cost[user]
                  : costs.active_base[user] + costs.slope[user] * as_double(phi);
}

/// Builds the slot costs from the cross-layer snapshot and the current queues.
/// Reads the SlotSoa lanes; the producer must have called ctx.finalize().
[[nodiscard]] EmaSlotCosts compute_ema_slot_costs(const SlotContext& ctx,
                                                  const LyapunovQueues& queues,
                                                  double v_weight);

/// Buffer-reusing variant: overwrites `out`, recycling its vectors.
void compute_ema_slot_costs(const SlotContext& ctx, const LyapunovQueues& queues,
                            double v_weight, EmaSlotCosts& out);

/// Reusable scratch for solve_min_cost_dp. A long-lived caller (EmaScheduler,
/// the perf gate) keeps one workspace so the steady-state solve performs no
/// heap allocation; buffers only ever grow. No state carries from one solve
/// to the next beyond buffer capacity and the path counters.
struct EmaDpWorkspace {
  simd::AlignedVec<double> prev;        ///< DP row for users [0, i)
  simd::AlignedVec<double> cur;         ///< DP row including user i
  simd::AlignedVec<double> window_key;  ///< sliding-window keys prev[j] - slope*j
  std::vector<std::int32_t> deque;      ///< monotone deque (indices into window_key)
  std::vector<std::int64_t> eff_cap;    ///< per-user caps after the cap reduction
  /// Start of row i in the packed choice table (n + 1 entries; the last is
  /// the table's size). Row i stores only its reachable prefix.
  std::vector<std::size_t> row_offset;
  /// g(i, M): best phi_i given M total units, rows packed at row_offset. The
  /// narrow table halves the dominant write bandwidth of the DP and is used
  /// whenever every effective cap fits in 16 bits; `choice` is the wide
  /// fallback (and the deque solver's full-width table).
  std::vector<std::int16_t> choice16;
  std::vector<std::int32_t> choice;

  // --- telemetry-visible counters (reset by the owner if desired) --------
  std::int64_t separable_hits = 0; ///< solves answered by the separable path
  std::int64_t dp_solves = 0;      ///< solves that ran DP rows
  std::int64_t reduced_rows = 0;   ///< DP rows whose cap the reduction cut
};

/// Tie margin of the exact solver's shortcuts (separable path, cap
/// reduction) for `users` users whose per-user cost magnitudes sum to
/// `scale`: scale * max(1e-12, 4 * users * eps). The DP's accumulated FP
/// error is bounded by ~users * eps * scale, so a decision that clears the
/// margin resolves the same way in the DP's own arithmetic. The relative
/// floor governs up to ~1100 users; past that the n-proportional term keeps
/// the margin above the error bound.
[[nodiscard]] double ema_tie_margin(std::size_t users, double scale) noexcept;

/// Exact minimizer of sum_i cost(i, phi_i) s.t. phi_i in [0, caps[i]] and
/// sum phi_i <= capacity_units (Algorithm 2's problem). Bit-identical to
/// solve_min_cost_dp_deque / solve_min_cost_dp_reference, including every
/// tie-break.
[[nodiscard]] Allocation solve_min_cost_dp(const EmaSlotCosts& costs,
                                           std::span<const std::int64_t> caps,
                                           std::int64_t capacity_units);

/// Workspace variant: solves into `out` using `ws` scratch; allocation-free
/// once both have warmed up to the instance size.
void solve_min_cost_dp(const EmaSlotCosts& costs, std::span<const std::int64_t> caps,
                       std::int64_t capacity_units, EmaDpWorkspace& ws,
                       Allocation& out);

/// The PR2 monotone-deque O(N * M) solver, kept verbatim as the before/after
/// baseline for bench_perf_gate/bench_scaling_users and as a differential
/// anchor: the production solver must match it exactly. Uses `ws`'s scratch
/// rows and wide choice table only.
void solve_min_cost_dp_deque(const EmaSlotCosts& costs,
                             std::span<const std::int64_t> caps,
                             std::int64_t capacity_units, EmaDpWorkspace& ws,
                             Allocation& out);

/// The paper-literal O(N * M * phi_max) DP (Algorithm 2 steps 3-18), kept as
/// the differential-testing oracle for the fast solvers and as the baseline
/// the perf regression gate measures speedup against.
[[nodiscard]] Allocation solve_min_cost_dp_reference(const EmaSlotCosts& costs,
                                                     std::span<const std::int64_t> caps,
                                                     std::int64_t capacity_units);

/// Algorithm 2 of the paper, with the exact DP slot solver.
///
/// The scheduler owns per-instance workspaces (slot costs, DP scratch) so the
/// steady-state allocate_into path performs zero heap allocations.
class EmaScheduler : public Scheduler {
 public:
  explicit EmaScheduler(EmaConfig config = {});

  [[nodiscard]] std::string name() const override { return "ema"; }
  void reset(std::size_t users) override;
  void reset_user(std::size_t user) override;
  [[nodiscard]] Allocation allocate(const SlotContext& ctx) override;
  void allocate_into(const SlotContext& ctx, Allocation& out) override;

  [[nodiscard]] const LyapunovQueues& queues() const noexcept { return queues_; }
  [[nodiscard]] const EmaConfig& config() const noexcept { return config_; }

  /// Exposes the Eq. 16 queues to the paper-invariant validator.
  [[nodiscard]] std::span<const double> virtual_queues() const override {
    return queues_.values();
  }

  /// Solve count harvested into RunMetrics: every solve is exact, so each one
  /// ticks exact_slots.
  [[nodiscard]] const SolveCertificate* solve_certificate() const override {
    return &certificate_;
  }

  /// The exact solver's path counters (separable-path solves, DP solves) —
  /// for benches and tests.
  [[nodiscard]] const EmaDpWorkspace& dp_workspace() const noexcept { return dp_ws_; }

 protected:
  /// Cost-model extension point, called between compute_ema_slot_costs and
  /// solve_slot with the same slot snapshot. The base scheduler leaves the
  /// costs untouched (the paper's Algorithm 2); PredictiveEmaScheduler adds
  /// its predicted-price deferral term here. Overrides must keep the per-user
  /// cost linear in phi (mutate idle_cost/active_base/slope only) so every
  /// slot solver — DP and greedy — remains applicable, and must not
  /// touch the Eq. 16 queue update that follows the solve.
  virtual void adjust_costs(const SlotContext& ctx, EmaSlotCosts& costs);

  /// Slot-problem solver; EmaFastScheduler overrides with the greedy solver.
  /// Writes the decision into `out` (storage recycled by the caller) and
  /// maintains `certificate_`.
  virtual void solve_slot(const EmaSlotCosts& costs,
                          std::span<const std::int64_t> caps,
                          std::int64_t capacity_units, Allocation& out);

  SolveCertificate certificate_;  ///< maintained by solve_slot overrides

 private:
  EmaConfig config_;
  LyapunovQueues queues_;
  EmaSlotCosts costs_ws_;
  EmaDpWorkspace dp_ws_;
};

}  // namespace jstream
