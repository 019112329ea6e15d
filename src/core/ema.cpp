#include "core/ema.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "common/units.hpp"
#include "radio/rrc.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/scoped_timer.hpp"

namespace jstream {

namespace {

struct EmaTelemetry {
  telemetry::Counter& allocations;
  telemetry::Counter& solve_separable;
  telemetry::Counter& solve_dp;
  telemetry::Counter& dp_cells;
  telemetry::Histogram& solve_latency_us;
  telemetry::Histogram& queue_level_s;
  telemetry::Gauge& queue_max_s;
  telemetry::SlotTracer& tracer;

  static EmaTelemetry& instance() {
    auto& registry = telemetry::global_registry();
    // Eq. 16 queues are seconds of rebuffering pressure; negative values mean
    // buffered surplus, so the buckets straddle zero.
    static const std::vector<double> queue_edges =
        telemetry::linear_buckets(-8.0, 0.5, 33);
    static EmaTelemetry probes{registry.counter("ema.allocations"),
                               registry.counter("ema.solve.separable"),
                               registry.counter("ema.solve.dp"),
                               registry.counter("ema.dp.cells"),
                               registry.histogram("ema.solve_latency_us"),
                               registry.histogram("ema.queue_level_s", queue_edges),
                               registry.gauge("ema.queue.max_s"),
                               registry.tracer()};
    return probes;
  }
};

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Largest phi value the int16 choice table can carry. Rows whose caps all
/// fit use the narrow table, halving the DP's dominant write bandwidth.
constexpr std::int64_t kNarrowChoiceMax = 32767;

/// Relative tie margin floor of the separable fast path and the cap
/// reduction (see ema_tie_margin).
constexpr double kSeparableMarginRel = 1e-12;

/// Grows `v` to at least `size` elements; never shrinks, so a long-lived
/// workspace stops allocating (and re-zeroing) once it has seen its largest
/// instance.
template <typename Vec>
void grow_to(Vec& v, std::size_t size) {
  if (v.size() < size) v.resize(size);
}

/// Sizes the packed choice table for `cells` entries. No content carries
/// from one solve to the next, so a table that is too small is released
/// before its replacement is reserved: never copied, never held twice. The
/// reservation leaves 2x headroom, capped at `bound` (the unreduced
/// n x width size); pages past the cells the rows write stay untouched.
template <typename T>
void size_choice_table(std::vector<T>& table, std::size_t cells, std::size_t bound) {
  if (table.capacity() < cells) {
    table.clear();
    table.shrink_to_fit();
    table.reserve(std::max(cells, std::min(bound, 2 * cells)));
  }
  grow_to(table, cells);
}

/// Sum of the per-user cost magnitudes: bounds |cost| of every allocation,
/// and so every DP cell value.
double cost_scale(const EmaSlotCosts& costs, std::span<const std::int64_t> caps) {
  const double* JSTREAM_RESTRICT idle = costs.idle_cost.data();
  const double* JSTREAM_RESTRICT base = costs.active_base.data();
  const double* JSTREAM_RESTRICT slope = costs.slope.data();
  double scale = 0.0;
  for (std::size_t i = 0; i < caps.size(); ++i) {
    scale += std::abs(idle[i]) + std::abs(base[i]) +
             std::abs(slope[i]) * as_double(caps[i]);
  }
  return scale;
}

struct DpBound {
  std::int64_t m_max = 0;  ///< min(capacity, sum caps): last reachable column
};

/// Common validation + bound computation for the DP entry points.
DpBound dp_bound(const EmaSlotCosts& costs, std::span<const std::int64_t> caps,
                 std::int64_t capacity_units) {
  const std::size_t n = caps.size();
  require(costs.idle_cost.size() == n && costs.slope.size() == n &&
              costs.active_base.size() == n,
          "cost/cap size mismatch");
  require(capacity_units >= 0, "capacity must be non-negative");
  std::int64_t cap_sum = 0;
  for (std::int64_t c : caps) {
    require(c >= 0, "caps must be non-negative");
    cap_sum += c;
  }
  return {std::min(capacity_units, cap_sum)};
}

/// Separable exact fast path. When the sum of unconstrained per-user optima
/// fits under m_max, constraint (2) is slack at the optimum, the DP
/// decomposes per user, and the answer is O(N). Every decision must clear the
/// tie margin (see ema_tie_margin) or the caller falls back to the full DP,
/// so the result — including all tie-breaks — is bit-identical to the
/// deque/reference solvers. Writes into `out` (pre-zeroed); on false the
/// caller must re-zero `out`.
bool try_separable(const EmaSlotCosts& costs, std::span<const std::int64_t> caps,
                   std::int64_t m_max, double margin, std::vector<std::int64_t>& out) {
  const std::size_t n = caps.size();
  const double* JSTREAM_RESTRICT idle = costs.idle_cost.data();
  const double* JSTREAM_RESTRICT base = costs.active_base.data();
  const double* JSTREAM_RESTRICT slope = costs.slope.data();
  std::int64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t cap = caps[i];
    if (cap == 0) continue;
    const std::int64_t phi = slope[i] < 0.0 ? cap : 1;
    const double active = base[i] + slope[i] * as_double(phi);
    const double gain = idle[i] - active;
    // The activate/idle decision and — when more than one phi is feasible —
    // the endpoint choice must both be margin-robust.
    if (!(std::abs(gain) > margin)) return false;
    if (cap > 1 && !(std::abs(slope[i]) > margin)) return false;
    if (gain > 0.0) {
      out[i] = phi;
      total += phi;
      if (total > m_max) return false;  // capacity binds: not separable
    }
  }
  return true;
}

struct CapReduction {
  std::int64_t cap_sum = 0;  ///< sum of effective caps
  std::int64_t cap_max = 0;  ///< largest effective cap (choice-table width)
  std::int64_t reduced = 0;  ///< users whose cap the pass cut
};

/// Margin-guarded per-user cap reduction (the exchange argument is in
/// solve_min_cost_dp). Writes each user's effective cap into `eff`:
///   * 0 when idling beats every grant by more than the margin,
///     idle < min(active(1), active(cap)) - margin (active is linear in phi,
///     so its minimum over [1, cap] sits at an endpoint);
///   * 1 when slope > margin: each unit past the first costs more than the
///     margin;
///   * the cap itself otherwise.
CapReduction reduce_caps(const EmaSlotCosts& costs, std::span<const std::int64_t> caps,
                         double margin, std::int64_t* JSTREAM_RESTRICT eff) {
  const double* JSTREAM_RESTRICT idle = costs.idle_cost.data();
  const double* JSTREAM_RESTRICT base = costs.active_base.data();
  const double* JSTREAM_RESTRICT slope = costs.slope.data();
  CapReduction r;
  for (std::size_t i = 0; i < caps.size(); ++i) {
    const std::int64_t cap = caps[i];
    std::int64_t e = cap;
    if (cap > 0) {
      const double active_min =
          std::min(base[i] + slope[i] * 1.0, base[i] + slope[i] * as_double(cap));
      if (idle[i] < active_min - margin) {
        e = 0;
      } else if (slope[i] > margin) {
        e = 1;
      }
    }
    eff[i] = e;
    r.cap_sum += e;
    r.cap_max = std::max(r.cap_max, e);
    if (e < cap) ++r.reduced;
  }
  return r;
}

/// One DP row: sliding-window minimum over j in [m - cap, m - 1] of
/// key(j) = prev[j] - slope*j via a monotone deque, ties kept at the larger j
/// (smaller phi), candidate evaluated as prev[j] + base + slope*phi — the
/// exact arithmetic and tie rules of solve_min_cost_dp_deque, so the result
/// is bit-identical by construction. Templated on the choice-table element so
/// cap_max <= 32767 rows write int16 cells, halving the dominant store
/// bandwidth of the DP; restrict-qualified aligned lanes let the compiler
/// keep the short special-case loops (cap 0/1) vectorized.
///
/// A block prefix/suffix reformulation of the window minimum was measured
/// here and lost to the deque (its running-min scans are serial dependences
/// and its auxiliary arrays triple the memory traffic), so the deque kernel
/// is the production row.
///
/// Column m reads only prev[0..m] and columns before it, so running the row
/// over a prefix [0, width) computes exactly the cells a wider row would.
template <typename ChoiceT>
void dp_row(const double* JSTREAM_RESTRICT prev, double* JSTREAM_RESTRICT cur,
            ChoiceT* JSTREAM_RESTRICT g, std::size_t width, std::int64_t cap,
            double idle, double base, double slope,
            double* JSTREAM_RESTRICT dq_key, std::int32_t* JSTREAM_RESTRICT dq) {
  cur[0] = prev[0] + idle;
  g[0] = 0;
  if (cap == 0) {
    // The user can receive nothing: the row is a pure idle shift.
    for (std::size_t m = 1; m < width; ++m) {
      cur[m] = prev[m] + idle;
      g[m] = 0;
    }
    return;
  }
  if (cap == 1) {
    // Window of one: the only active candidate at column m is phi = 1.
    for (std::size_t m = 1; m < width; ++m) {
      double best = prev[m] + idle;
      ChoiceT best_phi = 0;
      const double candidate = prev[m - 1] + base + slope * 1.0;
      if (candidate < best) {
        best = candidate;
        best_phi = 1;
      }
      cur[m] = best;
      g[m] = best_phi;
    }
    return;
  }
  std::size_t head = 0;
  std::size_t tail = 0;
  double prev_m = prev[0];  // rolls forward: the push key at column m uses prev[m-1]
  for (std::size_t m = 1; m < width; ++m) {
    const double key = prev_m - slope * as_double(m - 1);
    while (tail > head && key <= dq_key[tail - 1]) --tail;
    dq_key[tail] = key;
    dq[tail] = checked_i32(m - 1);
    ++tail;
    // The window lower bound m - cap advances by one per column, so at most
    // one eviction per step; j = m-1 (just pushed, >= m - cap) survives it,
    // so the deque is never left empty.
    if (std::int64_t{dq[head]} < checked_index(m) - cap) ++head;
    prev_m = prev[m];
    double best = prev_m + idle;
    ChoiceT best_phi = 0;
    const auto j = checked_size(dq[head]);
    const auto phi = m - j;
    const double candidate = prev[j] + base + slope * as_double(phi);
    if (candidate < best) {
      best = candidate;
      best_phi = static_cast<ChoiceT>(phi);
    }
    cur[m] = best;
    g[m] = best_phi;
  }
}

/// Final-row argmin (smallest M on ties) + Algorithm 2 steps 15-18 backtrack.
template <typename ChoiceT>
void backtrack(const double* final_row, const std::vector<ChoiceT>& choice,
               std::size_t n, std::size_t width, std::vector<std::int64_t>& out) {
  std::size_t m = 0;
  for (std::size_t candidate = 1; candidate < width; ++candidate) {
    if (final_row[candidate] < final_row[m]) m = candidate;
  }
  for (std::size_t i = n; i-- > 0;) {
    const auto phi = std::int64_t{choice[i * width + m]};
    out[i] = phi;
    m -= checked_size(phi);
  }
}

/// backtrack over the packed choice table: row i holds its reachable prefix
/// at [row_offset[i], row_offset[i + 1]). Every cell on the backtracked path
/// is finite, hence reachable, so the lookups stay inside their rows.
template <typename ChoiceT>
void backtrack_packed(const double* final_row, const ChoiceT* choice,
                      const std::size_t* row_offset, std::size_t n,
                      std::vector<std::int64_t>& out) {
  const std::size_t width = row_offset[n] - row_offset[n - 1];
  std::size_t m = 0;
  for (std::size_t candidate = 1; candidate < width; ++candidate) {
    if (final_row[candidate] < final_row[m]) m = candidate;
  }
  for (std::size_t i = n; i-- > 0;) {
    const auto phi = std::int64_t{choice[row_offset[i] + m]};
    out[i] = phi;
    m -= checked_size(phi);
  }
}

}  // namespace

double ema_tie_margin(std::size_t users, double scale) noexcept {
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  return scale * std::max(kSeparableMarginRel, 4.0 * as_double(users) * kEps);
}

EmaSlotCosts compute_ema_slot_costs(const SlotContext& ctx,
                                    const LyapunovQueues& queues, double v_weight) {
  EmaSlotCosts costs;
  compute_ema_slot_costs(ctx, queues, v_weight, costs);
  return costs;
}

void compute_ema_slot_costs(const SlotContext& ctx, const LyapunovQueues& queues,
                            double v_weight, EmaSlotCosts& out) {
  require(queues.size() == ctx.user_count(), "queue/user count mismatch");
  require(ctx.radio != nullptr && ctx.power != nullptr && ctx.throughput != nullptr,
          "context missing models");
  const std::size_t n = ctx.user_count();
  // The cost build streams over the SoA mirror; a stale mirror means the
  // snapshot producer skipped SlotContext::finalize().
  require(ctx.soa.size() == n, "SlotContext::finalize() not called before allocate");
  const SlotSoa& soa = ctx.soa;
  out.idle_cost.resize(n);
  out.active_base.resize(n);
  out.slope.resize(n);
  const RadioProfile& radio = *ctx.radio;
  const double tau = ctx.params.tau_s;
  const double delta = ctx.params.delta_kb;
  const bool continuous = radio.continuous_tail;
  const double p_dch = radio.p_dch_mw;
  for (std::size_t i = 0; i < n; ++i) {
    // Snapshot producers cache the Definition 3/4 fits per user per slot; a
    // zero rate means the producer predates the cached-field contract.
    require(soa.throughput_kbps[i] > 0.0, "slot snapshot missing cached link rates");
    // Tail increment of staying idle this slot (Eq. 4); a radio that never
    // transmitted has no tail to pay.
    double tail_mj = 0.0;
    if (soa.rrc_promoted(i)) {
      tail_mj = slot_tail_energy_mj(radio, soa.rrc_idle_s[i], tau);
    }
    out.idle_cost[i] = v_weight * tail_mj;
    // Active-slot energy mirrors the transmitter's accounting: under Eq. 5 a
    // transmission slot costs P(sig)*phi*delta only; under continuous-time
    // Eq. 4 it additionally pays DCH power for the post-transfer residue,
    // i.e. Pd*tau + phi*delta*(P - Pd/v).
    double energy_per_unit = soa.energy_per_kb[i] * delta;
    out.active_base[i] = 0.0;
    if (continuous) {
      out.active_base[i] = v_weight * p_dch * tau;
      energy_per_unit -= p_dch / soa.throughput_kbps[i] * delta;
    }
    const double playback_per_unit = delta / soa.bitrate_kbps[i];
    out.slope[i] = v_weight * energy_per_unit - queues.value(i) * playback_per_unit;
  }
}

Allocation solve_min_cost_dp(const EmaSlotCosts& costs,
                             std::span<const std::int64_t> caps,
                             std::int64_t capacity_units) {
  EmaDpWorkspace ws;
  Allocation alloc;
  solve_min_cost_dp(costs, caps, capacity_units, ws, alloc);
  return alloc;
}

void solve_min_cost_dp(const EmaSlotCosts& costs, std::span<const std::int64_t> caps,
                       std::int64_t capacity_units, EmaDpWorkspace& ws,
                       Allocation& out) {
  const std::size_t n = caps.size();
  const std::int64_t m_max = dp_bound(costs, caps, capacity_units).m_max;
  out.units.assign(n, 0);
  // Fast path: nothing can be granted, so the all-idle allocation is the only
  // feasible point; skip the DP tables entirely.
  if (n == 0 || m_max == 0) return;
  require(m_max < std::numeric_limits<std::int32_t>::max(),
          "capacity exceeds DP index range");

  auto& probes = EmaTelemetry::instance();
  const double scale = cost_scale(costs, caps);
  // Every cost exactly zero: all allocations tie, and the DP's tie-breaks
  // (strict-improvement scans, smallest argmin M) resolve to all-idle.
  // Otherwise try the margin-guarded separable solve (see try_separable).
  const double margin = ema_tie_margin(n, scale);
  if (scale == 0.0 || try_separable(costs, caps, m_max, margin, out.units)) {
    ++ws.separable_hits;
    probes.solve_separable.add();
    return;
  }
  std::fill(out.units.begin(), out.units.end(), 0);

  // Cap reduction, exact by an exchange argument. A path that grants
  // phi >= 2 to a user with slope > margin, or phi >= 1 to an idle-dominant
  // user, has a twin that grants that user 1 (resp. 0) units and leaves the
  // others alone: it ends at a smaller-or-equal M and costs more than
  // `margin` less. The margin bounds the DP's accumulated FP error, so no
  // such path is the DP's chosen path or ties with it in the DP's own
  // arithmetic. Dropping those options only raises the values of cells that
  // lose every comparison on the chosen path, so every comparison and
  // tie-break on that path resolves as before and the result is
  // bit-identical to the full DP. m_max and the narrow/wide table choice use
  // the effective caps.
  grow_to(ws.eff_cap, n);
  std::int64_t* eff = ws.eff_cap.data();
  const CapReduction red = reduce_caps(costs, caps, margin, eff);
  ws.reduced_rows += red.reduced;
  const std::size_t width = checked_size(std::min(capacity_units, red.cap_sum)) + 1;
  const bool narrow = red.cap_max <= kNarrowChoiceMax;

  // Row i only computes its reachable prefix [0, min(width - 1, sum_{k<=i}
  // eff_k)]: every column past it is +inf (no path reaches it), its choice is
  // 0, and the backtrack never reads it. The choice table packs those
  // prefixes at row_offset[i]; row_offset[n] is the table's size.
  grow_to(ws.row_offset, n + 1);
  std::size_t* row_offset = ws.row_offset.data();
  std::size_t cells = 0;
  std::size_t reach = 0;
  for (std::size_t i = 0; i < n; ++i) {
    row_offset[i] = cells;
    reach = std::min(width - 1, reach + checked_size(eff[i]));
    cells += reach + 1;
  }
  row_offset[n] = cells;

  grow_to(ws.prev, width);
  grow_to(ws.cur, width);
  grow_to(ws.window_key, width);
  grow_to(ws.deque, width);
  // g(i, M): best phi_i when the first i+1 users received M units in total.
  const std::size_t bound = n * (checked_size(m_max) + 1);
  if (narrow) {
    size_choice_table(ws.choice16, cells, bound);
  } else {
    size_choice_table(ws.choice, cells, bound);
  }

  // Both rows start all +inf: a row writes only its reachable prefix, which
  // never shrinks from one row to the next, so each buffer stays +inf past
  // the prefix it last held.
  double* prev = ws.prev.data();
  double* cur = ws.cur.data();
  std::fill_n(prev, width, kInf);
  std::fill_n(cur, width, kInf);
  prev[0] = 0.0;

  ++ws.dp_solves;
  probes.solve_dp.add();
  probes.dp_cells.add(checked_index(cells));
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t len = row_offset[i + 1] - row_offset[i];
    if (narrow) {
      dp_row<std::int16_t>(prev, cur, &ws.choice16[row_offset[i]], len, eff[i],
                           costs.idle_cost[i], costs.active_base[i],
                           costs.slope[i], ws.window_key.data(), ws.deque.data());
    } else {
      dp_row<std::int32_t>(prev, cur, &ws.choice[row_offset[i]], len, eff[i],
                           costs.idle_cost[i], costs.active_base[i],
                           costs.slope[i], ws.window_key.data(), ws.deque.data());
    }
    std::swap(prev, cur);
  }

  if (narrow) {
    backtrack_packed<std::int16_t>(prev, ws.choice16.data(), row_offset, n, out.units);
  } else {
    backtrack_packed<std::int32_t>(prev, ws.choice.data(), row_offset, n, out.units);
  }
}

void solve_min_cost_dp_deque(const EmaSlotCosts& costs,
                             std::span<const std::int64_t> caps,
                             std::int64_t capacity_units, EmaDpWorkspace& ws,
                             Allocation& out) {
  const std::size_t n = caps.size();
  const std::int64_t m_max = dp_bound(costs, caps, capacity_units).m_max;
  out.units.assign(n, 0);
  if (n == 0 || m_max == 0) return;
  require(m_max < std::numeric_limits<std::int32_t>::max(),
          "capacity exceeds DP index range");
  const auto width = checked_size(m_max) + 1;

  ws.prev.resize(width);
  ws.cur.resize(width);
  ws.window_key.resize(width);
  ws.deque.resize(width);
  ws.choice.resize(n * width);
  std::fill_n(ws.prev.data(), width, kInf);
  ws.prev[0] = 0.0;

  double* prev = ws.prev.data();
  double* cur = ws.cur.data();
  double* dq_key = ws.window_key.data();
  std::int32_t* dq = ws.deque.data();

  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t cap = caps[i];
    const double idle = costs.idle_cost[i];
    const double base = costs.active_base[i];
    const double slope = costs.slope[i];
    std::int32_t* g = &ws.choice[i * width];
    cur[0] = prev[0] + idle;
    g[0] = 0;
    if (cap == 0) {
      // The user can receive nothing: the row is a pure idle shift.
      for (std::size_t m = 1; m < width; ++m) {
        cur[m] = prev[m] + idle;
        g[m] = 0;
      }
      std::swap(prev, cur);
      continue;
    }
    // Sliding-window minimum over j in [m - cap, m - 1] of
    // key(j) = prev[j] - slope*j; the phi >= 1 candidate at column m is then
    // prev[j*] + base + slope*(m - j*). Ties keep the larger j (smaller phi),
    // matching the reference DP's ascending-phi strict-improvement scan.
    // Keys live in dq_key parallel to the index deque so the push comparison
    // needs no indirect load.
    std::size_t head = 0;
    std::size_t tail = 0;
    double prev_m = prev[0];  // rolls forward: the push key at column m uses prev[m-1]
    for (std::size_t m = 1; m < width; ++m) {
      const double key = prev_m - slope * as_double(m - 1);
      while (tail > head && key <= dq_key[tail - 1]) --tail;
      dq_key[tail] = key;
      dq[tail] = checked_i32(m - 1);
      ++tail;
      // The window lower bound m - cap advances by one per column, so at most
      // one eviction per step; j = m-1 (just pushed, >= m - cap) survives it,
      // so the deque is never left empty.
      if (std::int64_t{dq[head]} < checked_index(m) - cap) ++head;
      prev_m = prev[m];
      double best = prev_m + idle;
      std::int32_t best_phi = 0;
      const auto j = checked_size(dq[head]);
      const auto phi = checked_index(m - j);
      const double candidate = prev[j] + base + slope * as_double(phi);
      if (candidate < best) {
        best = candidate;
        best_phi = checked_i32(phi);
      }
      cur[m] = best;
      g[m] = best_phi;
    }
    std::swap(prev, cur);
  }

  backtrack<std::int32_t>(prev, ws.choice, n, width, out.units);
}

Allocation solve_min_cost_dp_reference(const EmaSlotCosts& costs,
                                       std::span<const std::int64_t> caps,
                                       std::int64_t capacity_units) {
  const std::size_t n = caps.size();
  const std::int64_t m_max = dp_bound(costs, caps, capacity_units).m_max;
  Allocation alloc = Allocation::zeros(n);
  if (n == 0) return alloc;
  const auto width = checked_size(m_max) + 1;

  std::vector<double> prev(width, kInf);
  std::vector<double> cur(width, kInf);
  // g(i, M): best phi_i when the first i+1 users received M units in total.
  std::vector<std::int32_t> choice(n * width, 0);
  prev[0] = 0.0;

  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t cap = caps[i];
    const double idle = costs.idle_cost[i];
    const double base = costs.active_base[i];
    const double slope = costs.slope[i];
    std::int32_t* g = &choice[i * width];
    for (std::size_t m = 0; m < width; ++m) {
      // phi = 0 branch.
      double best = prev[m] + idle;
      std::int32_t best_phi = 0;
      // phi >= 1 branches.
      const auto phi_max = std::min(cap, checked_index(m));
      for (std::int64_t phi = 1; phi <= phi_max; ++phi) {
        const double candidate = prev[m - checked_size(phi)] + base +
                                 slope * as_double(phi);
        if (candidate < best) {
          best = candidate;
          best_phi = checked_i32(phi);
        }
      }
      cur[m] = best;
      g[m] = best_phi;
    }
    std::swap(prev, cur);
  }

  // D_N = argmin_M a[N][M], then backtrack (Algorithm 2 steps 15-18).
  std::size_t m = 0;
  for (std::size_t candidate = 1; candidate < width; ++candidate) {
    if (prev[candidate] < prev[m]) m = candidate;
  }
  for (std::size_t i = n; i-- > 0;) {
    const std::int32_t phi = choice[i * width + m];
    alloc.units[i] = phi;
    m -= checked_size(phi);
  }
  return alloc;
}

EmaScheduler::EmaScheduler(EmaConfig config) : config_(config) {
  require(config_.v_weight > 0.0, "V must be positive");
}

void EmaScheduler::reset(std::size_t users) {
  queues_.reset(users);
  certificate_ = SolveCertificate{};
}

void EmaScheduler::reset_user(std::size_t user) { queues_.reset_user(user); }

Allocation EmaScheduler::allocate(const SlotContext& ctx) {
  Allocation alloc;
  allocate_into(ctx, alloc);
  return alloc;
}

// jstream: hot-path — per-slot EMA allocation; the solver below it
// (separable fast path, deque row kernel) inherits hotness through the
// same-TU call graph.
void EmaScheduler::allocate_into(const SlotContext& ctx, Allocation& out) {
  require(queues_.size() == ctx.user_count(),
          "EMA not reset for this user count");
  const std::size_t n = ctx.user_count();
  // The caps span below reads the SoA mirror directly, so this function needs
  // its own stale-mirror guard (the one in compute_ema_slot_costs is not a
  // contract for this frame).
  require(ctx.soa.size() == n, "SlotContext::finalize() not called before allocate");
  compute_ema_slot_costs(ctx, queues_, config_.v_weight, costs_ws_);
  adjust_costs(ctx, costs_ws_);
  // The SoA mirror already holds the caps contiguously — no per-slot copy.
  const std::span<const std::int64_t> caps{ctx.soa.alloc_cap_units.data(), n};
  {
    telemetry::ScopedTimer timer(EmaTelemetry::instance().solve_latency_us);
    solve_slot(costs_ws_, caps, ctx.capacity_units, out);
  }

  // Eq. 16 queue update with the decided allocation; frozen once a session
  // has no content left (it can never receive again, so the queue carries no
  // scheduling signal).
  const SlotSoa& soa = ctx.soa;
  for (std::size_t i = 0; i < n; ++i) {
    if (!soa.needs_data(i)) continue;
    const double kb =
        std::min(ctx.params.units_to_kb(out.units[i]), soa.remaining_kb[i]);
    queues_.update(i, ctx.params.tau_s, kb / soa.bitrate_kbps[i]);
  }

  // Observation-only: the post-update Eq. 16 queue distribution and the worst
  // queue of the slot (the user under the most rebuffering pressure).
  if (telemetry::enabled() && queues_.size() > 0) {
    auto& probes = EmaTelemetry::instance();
    probes.allocations.add();
    double max_queue = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < queues_.size(); ++i) {
      const double level = queues_.value(i);
      probes.queue_level_s.observe(level);
      max_queue = std::max(max_queue, level);
    }
    probes.queue_max_s.set(max_queue);
    probes.tracer.record(ctx.slot, -1, telemetry::TraceEventKind::kQueueLevel,
                         max_queue);
  }
}

void EmaScheduler::adjust_costs(const SlotContext& /*ctx*/, EmaSlotCosts& /*costs*/) {
  // Algorithm 2 solves the unmodified Eq. 3-5 cost model; predictive
  // subclasses perturb the slopes here.
}

void EmaScheduler::solve_slot(const EmaSlotCosts& costs,
                              std::span<const std::int64_t> caps,
                              std::int64_t capacity_units, Allocation& out) {
  solve_min_cost_dp(costs, caps, capacity_units, dp_ws_, out);
  ++certificate_.exact_slots;
}

}  // namespace jstream
