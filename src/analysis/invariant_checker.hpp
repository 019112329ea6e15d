// Paper-invariant validator: mechanical feasibility checks for every slot.
//
// Lyapunov-style schedulers are exactly where silent constraint violations
// hide — a scheduler can look plausible in aggregate metrics while quietly
// overshooting the feasibility region the paper's analysis depends on. The
// InvariantChecker re-derives, from the slot snapshot and the executed
// outcome, every constraint the paper states and raises a structured
// InvariantViolation (scheduler, slot, user, equation) on the first breach:
//
//   Eq. (1)  per-user link bound: 0 <= phi_i <= floor(tau*v(sig_i)/delta),
//            further clipped by the remaining content, and phi_i = 0 before
//            the session arrives;
//   Eq. (2)  aggregate capacity: sum_i phi_i <= floor(tau*S/delta);
//   Eq. (3)  transmission energy consistency: E = P(sig_i) * d_i;
//   Eq. (7)  buffer bookkeeping: the collector's r_i(n) snapshot matches the
//            client buffer, occupancy and elapsed playback stay in range;
//   Eq. (8)  rebuffering: c_i(n) = max(tau - r_i(n), 0) while m_i < M_i,
//            0 after playback completes or before arrival;
//   Eq. (16) virtual-queue recursion: schedulers that expose Lyapunov queues
//            (Scheduler::virtual_queues) must track the shadow recursion
//            PC_i(n+1) = PC_i(n) + tau - t_i(n) exactly, and no queue may
//            grow faster than tau per slot;
//   RRC      state-machine legality: no IDLE->FACH promotion skips, radios
//            only promote on transmission, the inactivity clock advances by
//            exactly tau on idle slots and rewinds only on transmission, and
//            per-slot tail energy stays within the Eq. 4 power envelope.
//
// Degraded-cell slots (gateway/fault_hook.hpp, sim/fault.hpp) are first-class:
// check_allocation validates the decision against the view the scheduler
// actually saw (stale reports, faded signals, scaled capacity included),
// check_outcome validates the executed slot against the reconciled truth, and
// departed users must receive no grants, accrue no stall time or tail energy,
// and keep a frozen RRC clock.
//
// The checker is compiled in unconditionally but off by default; it costs one
// relaxed atomic load per slot while disabled. `--validate` on the bench
// binaries (or JSTREAM_VALIDATE=ON at configure time) turns it on. All scratch
// state is sized at reset, so an enabled checker adds no steady-state heap
// allocations to the slot path.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "gateway/data_transmitter.hpp"
#include "gateway/slot_context.hpp"
#include "gateway/user_endpoint.hpp"
#include "net/allocation.hpp"
#include "radio/rrc.hpp"

namespace jstream::analysis {

/// Process-wide validation switch. Defaults to off (or on when the library
/// was configured with -DJSTREAM_VALIDATE=ON); flipping it mid-run is safe —
/// the checker resynchronizes its shadow state on the next validated slot.
[[nodiscard]] bool validation_enabled() noexcept;
void set_validation_enabled(bool on) noexcept;

/// Structured description of one violated paper invariant.
struct Violation {
  std::string scheduler;  ///< Scheduler::name() of the offending policy
  std::string equation;   ///< "Eq. (1)", "Eq. (2)", ..., "Eq. (16)", "RRC"
  std::int64_t slot = 0;
  std::int32_t user = -1;  ///< -1 for slot-wide violations
  std::string detail;      ///< human-readable numbers behind the breach

  /// "scheduler=ema slot=12 user=3 violated Eq. (2): ...".
  [[nodiscard]] std::string to_string() const;
};

/// Thrown by InvariantChecker on the first violated invariant.
class InvariantViolation : public Error {
 public:
  explicit InvariantViolation(Violation violation);
  [[nodiscard]] const Violation& violation() const noexcept { return violation_; }

 private:
  Violation violation_;
};

/// Per-framework validator; see the file comment for the checked equations.
///
/// The Framework drives it in slot order:
///   check_allocation(ctx, alloc, queues)   after the scheduler decides,
///   check_outcome(ctx, alloc, outcome, …)  after the transmitter executes
/// (both only while validation_enabled()). Slots validated after a mid-run
/// enable adopt the current scheduler/radio state as the new baseline instead
/// of reporting a spurious divergence.
class InvariantChecker {
 public:
  InvariantChecker() = default;

  /// Binds the checker to a scheduler name and sizes all shadow state.
  void reset(std::string scheduler_name, std::size_t users);

  /// Validates the decision against Eq. (1)/(2) and, when the scheduler
  /// exposes Lyapunov queues, the Eq. (16) recursion. `queues` is
  /// Scheduler::virtual_queues() *after* allocate (EMA updates its queues
  /// inside the decision); pass an empty span for queue-less schedulers.
  void check_allocation(const SlotContext& ctx, const Allocation& alloc,
                        std::span<const double> queues);

  /// Validates the executed slot: Eq. (3) energy, Eq. (7)/(8) buffer and
  /// rebuffer bookkeeping, and RRC legality. `rrc_before` holds the per-user
  /// states captured before DataTransmitter::apply_into.
  void check_outcome(const SlotContext& ctx, const Allocation& alloc,
                     const SlotOutcome& outcome,
                     std::span<const UserEndpoint> endpoints,
                     std::span<const RrcState> rrc_before);

  /// Slots validated since reset (or the last mid-run resynchronization).
  [[nodiscard]] std::int64_t slots_checked() const noexcept { return slots_checked_; }

  [[nodiscard]] const std::string& scheduler_name() const noexcept { return scheduler_; }

 private:
  [[noreturn]] void raise(const char* equation, std::int64_t slot, std::int32_t user,
                          std::string detail) const;

  std::string scheduler_;
  std::vector<double> shadow_queue_;  ///< Eq. 16 shadow recursion PC_i(n)
  std::vector<double> idle_prev_;     ///< RRC inactivity clock at last validated slot
  std::vector<bool> idle_known_;      ///< idle_prev_ valid for this user
  /// Session epoch last validated per population slot. A mismatch means the
  /// session layer rebound the slot to a fresh session mid-run: the Eq. 16
  /// shadow adopts the scheduler's (reset) queue level and the RRC clock
  /// baseline is re-learned, instead of reporting ghost divergences against
  /// the departed occupant's state.
  std::vector<std::int32_t> epoch_seen_;
  bool queues_synced_ = false;        ///< shadow adopted the scheduler's levels
  std::int64_t slots_checked_ = 0;
  std::int64_t last_slot_ = -1;
};

}  // namespace jstream::analysis
