// The Scheduler component interface (Section III-A).
//
// A scheduler decides, once per slot, how many data units each user receives.
// Implementations may keep state across slots (virtual queues, burst phases)
// but must produce allocations satisfying constraints (1) and (2); the
// DataTransmitter validates every allocation before applying it.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "gateway/slot_context.hpp"
#include "net/allocation.hpp"

namespace jstream {

/// Optimality certificate for schedulers that solve the per-slot problem
/// exactly (the EMA DP): a count of exact slot solves since reset, harvested
/// into RunMetrics::cert_exact_slots at run end.
struct SolveCertificate {
  std::int64_t exact_slots = 0;  ///< slots solved exactly
};

/// Per-slot data allocation policy.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Stable identifier used in reports and the factory ("rtma", "ema", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Clears internal state for a fresh run over `users` users.
  virtual void reset(std::size_t users) = 0;

  /// Clears any per-user state for population slot `user` only, leaving the
  /// rest of the run untouched. The session layer calls this when a departed
  /// slot is rebound to a freshly arrived session, so stale virtual queues or
  /// rotation state never leak across sessions. Stateless schedulers need not
  /// override the no-op default.
  virtual void reset_user(std::size_t user) { (void)user; }

  /// Computes phi_i(n) for every user. Must satisfy:
  ///   0 <= phi_i <= ctx.users[i].alloc_cap_units      (constraint (1))
  ///   sum phi_i <= ctx.capacity_units                 (constraint (2))
  [[nodiscard]] virtual Allocation allocate(const SlotContext& ctx) = 0;

  /// Buffer-reusing variant: writes the decision into `out`, recycling its
  /// storage across slots. The framework drives this entry point so that
  /// schedulers with internal workspaces (EMA) can run allocation-free in
  /// steady state; the default simply forwards to allocate().
  virtual void allocate_into(const SlotContext& ctx, Allocation& out) {
    out = allocate(ctx);
  }

  /// Lyapunov virtual-queue levels PC_i (Eq. 16) *after* the current slot's
  /// decision, for schedulers that maintain them (EMA family); empty
  /// otherwise. The paper-invariant validator cross-checks these against the
  /// Eq. 16 shadow recursion (see src/analysis/invariant_checker.hpp).
  [[nodiscard]] virtual std::span<const double> virtual_queues() const { return {}; }

  /// Optimality certificate of the per-slot solves, for schedulers that
  /// solve the slot problem exactly (EMA). Null for schedulers without one.
  [[nodiscard]] virtual const SolveCertificate* solve_certificate() const {
    return nullptr;
  }
};

}  // namespace jstream
