// Data Transmitter component (Section III-A).
//
// Applies the Scheduler's allocation: validates it against constraints (1)
// and (2), stages the bytes through the Data Receiver, charges transmission
// energy (Eq. 3) or tail energy (Eq. 4) per user, and hands the bytes to the
// endpoint, which turns them into buffered playback (UserEndpoint::deliver).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gateway/data_receiver.hpp"
#include "gateway/slot_context.hpp"
#include "gateway/user_endpoint.hpp"
#include "net/allocation.hpp"

namespace jstream {

/// Per-user results of executing one slot.
struct SlotOutcome {
  std::vector<std::int64_t> units;    ///< phi_i(n) actually transmitted
  std::vector<double> kb;             ///< d_i(n) in KB (last shard may be partial)
  std::vector<double> trans_mj;       ///< Eq. 3 transmission energy
  std::vector<double> tail_mj;        ///< Eq. 4 per-slot tail energy
  std::vector<double> rebuffer_s;     ///< Eq. 8 rebuffering time c_i(n)
  std::vector<double> need_kb;        ///< d_need(i): tau * p_i, capped by remaining

  /// Total energy of user i in this slot (Eq. 5): transmission when phi != 0,
  /// tail otherwise. (At most one of the two is non-zero per user.)
  [[nodiscard]] double energy_mj(std::size_t user) const {
    return trans_mj[user] + tail_mj[user];
  }
};

/// Executes allocations against endpoint state.
class DataTransmitter {
 public:
  /// Applies `allocation` for the slot described by `ctx`. Endpoints must
  /// have begin_slot() already applied to their buffers (the Framework
  /// enforces this ordering); end_slot() remains the caller's duty.
  /// Throws when the allocation violates constraint (1) or (2).
  [[nodiscard]] SlotOutcome apply(const SlotContext& ctx, const Allocation& allocation,
                                  std::span<UserEndpoint> endpoints,
                                  DataReceiver& receiver) const;

  /// Buffer-reusing variant of apply: overwrites `out` in place, recycling
  /// its vectors, and validates constraints without materializing a caps
  /// vector — the steady-state slot path performs no heap allocation.
  void apply_into(const SlotContext& ctx, const Allocation& allocation,
                  std::span<UserEndpoint> endpoints, DataReceiver& receiver,
                  SlotOutcome& out) const;
};

}  // namespace jstream
