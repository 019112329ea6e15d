#include "gateway/data_transmitter.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"

namespace jstream {

namespace {

/// Constraint (1)/(2) validation against the snapshot's per-user caps.
/// Mirrors require_feasible but reads the caps straight from the context, so
/// the per-slot path needs no temporary caps vector; messages are built only
/// on the failure branch.
void require_feasible_ctx(const Allocation& allocation, const SlotContext& ctx) {
  require(allocation.units.size() == ctx.users.size(),
          "infeasible allocation: allocation size does not match user count");
  std::int64_t total = 0;
  for (std::size_t i = 0; i < allocation.units.size(); ++i) {
    const std::int64_t phi = allocation.units[i];
    if (phi < 0) {
      require(false, "infeasible allocation: negative allocation for user " +
                         std::to_string(i));
    }
    if (phi > ctx.users[i].alloc_cap_units) {
      require(false, "infeasible allocation: constraint (1) violated for user " +
                         std::to_string(i) + ": " + std::to_string(phi) + " > " +
                         std::to_string(ctx.users[i].alloc_cap_units));
    }
    total += phi;
  }
  if (total > ctx.capacity_units) {
    require(false, "infeasible allocation: constraint (2) violated: " +
                       std::to_string(total) + " > " +
                       std::to_string(ctx.capacity_units));
  }
}

}  // namespace

SlotOutcome DataTransmitter::apply(const SlotContext& ctx, const Allocation& allocation,
                                   std::span<UserEndpoint> endpoints,
                                   DataReceiver& receiver) const {
  SlotOutcome outcome;
  apply_into(ctx, allocation, endpoints, receiver, outcome);
  return outcome;
}

// jstream: hot-path — per-slot transmission accounting; reuses out buffers.
void DataTransmitter::apply_into(const SlotContext& ctx, const Allocation& allocation,
                                 std::span<UserEndpoint> endpoints,
                                 DataReceiver& receiver, SlotOutcome& out) const {
  require(endpoints.size() == ctx.users.size(), "endpoint/context size mismatch");
  require_feasible_ctx(allocation, ctx);

  const std::size_t n = endpoints.size();
  out.units.assign(n, 0);
  out.kb.assign(n, 0.0);
  out.trans_mj.assign(n, 0.0);
  out.tail_mj.assign(n, 0.0);
  out.rebuffer_s.assign(n, 0.0);
  out.need_kb.assign(n, 0.0);

  for (std::size_t i = 0; i < n; ++i) {
    UserEndpoint& endpoint = endpoints[i];
    const UserSlotInfo& info = ctx.users[i];
    const std::int64_t phi = allocation.units[i];

    // An aborted session has left the cell: no demand, no stall, and its
    // radio — RRC tail included — is no longer this base station's to charge.
    // The fault hook zeroes its allocation cap, so phi is already 0 here.
    if (info.departed) continue;

    // Rebuffering (Eq. 8) depends only on the occupancy at slot start; the
    // shard delivered this slot becomes usable next slot. Sessions that have
    // not arrived yet neither stall nor demand data.
    out.rebuffer_s[i] = info.arrived ? endpoint.buffer.rebuffer_s() : 0.0;
    out.need_kb[i] =
        info.arrived ? std::min(ctx.params.tau_s * info.bitrate_kbps, info.remaining_kb)
                     : 0.0;

    double kb = 0.0;
    double active_s = 0.0;
    if (phi > 0) {
      // The final shard of a session may be partial; it still occupies a full
      // data unit on the air interface (constraint accounting), but only the
      // real bytes cost energy and reach the client.
      kb = std::min(ctx.params.units_to_kb(phi), info.remaining_kb);
      const double fetched = receiver.fetch_from_origin(i, kb);
      receiver.drain(i, fetched);
      // A segmented client may consume less than it is offered (a
      // down-switch at a segment boundary shrinks what is left); only the
      // consumed bytes cost energy and airtime.
      kb = endpoint.deliver(fetched);
      out.trans_mj[i] = info.energy_per_kb * kb;
      // The transfer occupies d/v seconds of the slot at link rate; the
      // remainder is tail residue charged by the RRC machine.
      active_s = std::min(kb / info.throughput_kbps, ctx.params.tau_s);
    }
    out.units[i] = phi;
    out.kb[i] = kb;
    out.tail_mj[i] = endpoint.rrc.advance_slot(active_s, ctx.params.tau_s);
  }
}

}  // namespace jstream
