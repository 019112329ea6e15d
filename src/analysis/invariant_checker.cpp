#include "analysis/invariant_checker.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include "common/units.hpp"

namespace jstream::analysis {

namespace {

#ifdef JSTREAM_VALIDATE_DEFAULT_ON
constexpr bool kValidateDefault = true;
#else
constexpr bool kValidateDefault = false;
#endif

std::atomic<bool> g_validate{kValidateDefault};

/// Absolute slack for quantities accumulated over many slots (seconds, KB,
/// mJ); forgiving enough for double rounding, far below one data unit.
constexpr double kEps = 1e-6;

/// Tight slack for values the checker recomputes from the same inputs in the
/// same order as the production code (Eq. 8, Eq. 16).
constexpr double kTightEps = 1e-9;

/// Promotion order of the RRC states: a radio may only move up this ladder by
/// transmitting.
int rrc_rank(RrcState state) noexcept {
  switch (state) {
    case RrcState::kIdle: return 0;
    case RrcState::kFach: return 1;
    case RrcState::kDch: return 2;
  }
  return 0;
}

const char* rrc_name(RrcState state) noexcept {
  switch (state) {
    case RrcState::kIdle: return "IDLE";
    case RrcState::kFach: return "FACH";
    case RrcState::kDch: return "DCH";
  }
  return "?";
}

std::string fmt(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", value);
  return buf;
}

}  // namespace

bool validation_enabled() noexcept {
  return g_validate.load(std::memory_order_relaxed);
}

void set_validation_enabled(bool on) noexcept {
  g_validate.store(on, std::memory_order_relaxed);
}

std::string Violation::to_string() const {
  std::string out = "invariant violation: scheduler=" + scheduler +
                    " slot=" + std::to_string(slot);
  out += user >= 0 ? " user=" + std::to_string(user) : std::string(" user=<all>");
  out += " violated " + equation + ": " + detail;
  return out;
}

InvariantViolation::InvariantViolation(Violation violation)
    : Error(violation.to_string()), violation_(std::move(violation)) {}

void InvariantChecker::raise(const char* equation, std::int64_t slot,
                             std::int32_t user, std::string detail) const {
  throw InvariantViolation(
      Violation{scheduler_, equation, slot, user, std::move(detail)});
}

void InvariantChecker::reset(std::string scheduler_name, std::size_t users) {
  scheduler_ = std::move(scheduler_name);
  shadow_queue_.assign(users, 0.0);
  idle_prev_.assign(users, 0.0);
  idle_known_.assign(users, false);
  epoch_seen_.assign(users, 0);
  queues_synced_ = false;
  slots_checked_ = 0;
  last_slot_ = -1;
}

void InvariantChecker::check_allocation(const SlotContext& ctx, const Allocation& alloc,
                                        std::span<const double> queues) {
  const std::size_t n = ctx.user_count();
  const std::int64_t slot = ctx.slot;
  if (alloc.units.size() != n) {
    raise("Eq. (1)", slot, -1,
          "allocation has " + std::to_string(alloc.units.size()) + " entries for " +
              std::to_string(n) + " users");
  }
  if (shadow_queue_.size() != n) {
    raise("Eq. (16)", slot, -1,
          "checker reset for " + std::to_string(shadow_queue_.size()) +
              " users, slot has " + std::to_string(n));
  }

  // A gap in the validated slot sequence (validation enabled mid-run) means
  // the shadow state is stale: adopt the scheduler's current levels and the
  // radios' clocks as the new baseline instead of reporting ghosts.
  const bool continuous = slot == last_slot_ + 1;
  if (!continuous) {
    queues_synced_ = false;
    std::fill(idle_known_.begin(), idle_known_.end(), false);
  }

  // Eq. (1): 0 <= phi_i <= min(link cap, remaining content), nothing before
  // arrival. Eq. (2): the slot's total grant fits the base station.
  std::int64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const UserSlotInfo& user = ctx.users[i];
    const std::int64_t phi = alloc.units[i];
    const auto uid = checked_i32(i);
    if (phi < 0) {
      raise("Eq. (1)", slot, uid, "negative grant phi=" + std::to_string(phi));
    }
    if (phi > user.link_units) {
      raise("Eq. (1)", slot, uid,
            "phi=" + std::to_string(phi) + " > link cap floor(tau*v/delta)=" +
                std::to_string(user.link_units));
    }
    if (phi > user.alloc_cap_units) {
      raise("Eq. (1)", slot, uid,
            "phi=" + std::to_string(phi) + " > alloc cap min(link, remaining)=" +
                std::to_string(user.alloc_cap_units));
    }
    if (!user.arrived && phi != 0) {
      raise("Eq. (1)", slot, uid,
            "granted phi=" + std::to_string(phi) + " before session arrival");
    }
    if (user.departed && phi != 0) {
      raise("Eq. (1)", slot, uid,
            "granted phi=" + std::to_string(phi) + " after session departure");
    }
    total += phi;
  }
  if (total > ctx.capacity_units) {
    raise("Eq. (2)", slot, -1,
          "total grant " + std::to_string(total) + " units > capacity floor(tau*S/delta)=" +
              std::to_string(ctx.capacity_units) + " units");
  }

  // Eq. (16): schedulers exposing Lyapunov queues must follow the recursion
  // PC_i(n+1) = PC_i(n) + tau - t_i(n) with t_i the playback seconds the
  // grant carries (frozen once the session has no content left), and no
  // queue can outgrow tau per slot from its PC(0) = 0 start.
  if (!queues.empty()) {
    if (queues.size() != n) {
      raise("Eq. (16)", slot, -1,
            "scheduler exposes " + std::to_string(queues.size()) + " queues for " +
                std::to_string(n) + " users");
    }
    const double tau = ctx.params.tau_s;
    const double growth_cap = tau * as_double(slot + 1) + kEps;
    for (std::size_t i = 0; i < n; ++i) {
      const auto uid = checked_i32(i);
      if (!std::isfinite(queues[i])) {
        raise("Eq. (16)", slot, uid, "queue PC=" + fmt(queues[i]) + " is not finite");
      }
      if (queues[i] > growth_cap) {
        raise("Eq. (16)", slot, uid,
              "queue PC=" + fmt(queues[i]) + " s exceeds tau*(n+1)=" + fmt(growth_cap) +
                  " s, faster than the recursion can grow");
      }
    }
    if (queues_synced_) {
      for (std::size_t i = 0; i < n; ++i) {
        const UserSlotInfo& user = ctx.users[i];
        if (user.session_epoch != epoch_seen_[i]) {
          // A fresh session took over this population slot; its queue was
          // reset at the rebind, so the shadow re-anchors on the scheduler's
          // post-decision level (check_outcome records the new epoch).
          shadow_queue_[i] = queues[i];
          continue;
        }
        if (user.needs_data) {
          const double kb = std::min(ctx.params.units_to_kb(alloc.units[i]),
                                     user.remaining_kb);
          shadow_queue_[i] += tau - kb / user.bitrate_kbps;
        }
        const double gap = std::abs(queues[i] - shadow_queue_[i]);
        const double tol = kTightEps * std::max(1.0, std::abs(shadow_queue_[i]));
        if (gap > tol) {
          raise("Eq. (16)", slot, checked_i32(i),
                "queue PC=" + fmt(queues[i]) + " s diverges from the recursion value " +
                    fmt(shadow_queue_[i]) + " s (gap " + fmt(gap) + ")");
        }
      }
    } else {
      std::copy(queues.begin(), queues.end(), shadow_queue_.begin());
      queues_synced_ = true;
    }
  }
}

void InvariantChecker::check_outcome(const SlotContext& ctx, const Allocation& alloc,
                                     const SlotOutcome& outcome,
                                     std::span<const UserEndpoint> endpoints,
                                     std::span<const RrcState> rrc_before) {
  const std::size_t n = ctx.user_count();
  const std::int64_t slot = ctx.slot;
  if (outcome.units.size() != n || outcome.kb.size() != n ||
      outcome.trans_mj.size() != n || outcome.tail_mj.size() != n ||
      outcome.rebuffer_s.size() != n || endpoints.size() != n ||
      rrc_before.size() != n) {
    raise("Eq. (7)", slot, -1, "outcome/endpoint arrays not sized to the user count");
  }
  const double tau = ctx.params.tau_s;
  const RadioProfile& radio = *ctx.radio;
  const double slot_tail_cap =
      std::max(radio.p_dch_mw, radio.p_fach_mw) * tau + kEps;

  for (std::size_t i = 0; i < n; ++i) {
    const UserSlotInfo& info = ctx.users[i];
    const UserEndpoint& endpoint = endpoints[i];
    const auto uid = checked_i32(i);
    const std::int64_t phi = outcome.units[i];
    const double kb = outcome.kb[i];

    // Mid-run rebind: the slot hosts a brand-new session with a fresh radio,
    // so the RRC clock baseline from the previous occupant is meaningless.
    if (info.session_epoch != epoch_seen_[i]) {
      idle_known_[i] = false;
      epoch_seen_[i] = info.session_epoch;
    }

    // The transmitter must execute exactly the validated decision.
    if (phi != alloc.units[i]) {
      raise("Eq. (1)", slot, uid,
            "transmitter executed phi=" + std::to_string(phi) + ", scheduler decided " +
                std::to_string(alloc.units[i]));
    }
    // Definition 1: a grant of phi units carries at most phi*delta KB, never
    // more than the content that was left, and no bytes move on phi = 0.
    if (kb < -kEps || kb > ctx.params.units_to_kb(phi) + kEps) {
      raise("Eq. (1)", slot, uid,
            "delivered d=" + fmt(kb) + " KB outside [0, phi*delta=" +
                fmt(ctx.params.units_to_kb(phi)) + " KB]");
    }
    if (kb > info.remaining_kb + kEps) {
      raise("Eq. (1)", slot, uid,
            "delivered d=" + fmt(kb) + " KB > remaining content " +
                fmt(info.remaining_kb) + " KB");
    }

    // Eq. (3): transmission energy is the Definition 4 fit times the bytes.
    const double expected_trans = info.energy_per_kb * kb;
    if (std::abs(outcome.trans_mj[i] - expected_trans) >
        kTightEps * std::max(1.0, expected_trans)) {
      raise("Eq. (3)", slot, uid,
            "transmission energy " + fmt(outcome.trans_mj[i]) + " mJ != P(sig)*d=" +
                fmt(expected_trans) + " mJ");
    }

    // Eq. (7): the collector's snapshot and the client buffer must agree on
    // r_i(n), and the bookkeeping stays in range. The buffer occupancy is
    // untouched between collect and this check (this slot's shard lands as
    // pending playback, folded in by the next begin_slot).
    const double occupancy = endpoint.buffer.occupancy_s();
    if (occupancy < -kTightEps) {
      raise("Eq. (7)", slot, uid, "buffer occupancy r=" + fmt(occupancy) + " s < 0");
    }
    if (std::abs(occupancy - info.buffer_s) > kTightEps) {
      raise("Eq. (7)", slot, uid,
            "snapshot r=" + fmt(info.buffer_s) + " s disagrees with client buffer r=" +
                fmt(occupancy) + " s");
    }
    const double elapsed = endpoint.buffer.elapsed_s();
    const double total_play = endpoint.buffer.total_s();
    if (elapsed < -kTightEps || elapsed > total_play + kEps) {
      raise("Eq. (7)", slot, uid,
            "elapsed playback m=" + fmt(elapsed) + " s outside [0, M=" +
                fmt(total_play) + " s]");
    }

    // Eq. (8): c_i(n) = max(tau - r_i(n), 0) while m_i < M_i; zero once
    // playback finished, zero before the session arrives, and zero after a
    // mid-stream abort (a departed user no longer stalls anyone).
    const bool finished = elapsed >= total_play - kPlaybackCompletionEps_s;
    const double expected_rebuffer =
        (!info.arrived || info.departed || finished)
            ? 0.0
            : std::max(tau - occupancy, 0.0);
    if (std::abs(outcome.rebuffer_s[i] - expected_rebuffer) > kTightEps) {
      raise("Eq. (8)", slot, uid,
            "rebuffer c=" + fmt(outcome.rebuffer_s[i]) + " s != max(tau - r, 0)=" +
                fmt(expected_rebuffer) + " s (r=" + fmt(occupancy) + ", arrived=" +
                (info.arrived ? "yes" : "no") + ", finished=" +
                (finished ? "yes" : "no") + ")");
    }

    // RRC legality. Promotion happens only by transmitting, and a promotion
    // lands in DCH — IDLE->FACH would skip the high-power state, which the
    // Section III-C machine cannot do.
    const RrcState before = rrc_before[i];
    const RrcState after = endpoint.rrc.state();
    const double idle_after = endpoint.rrc.idle_time_s();
    if (kb <= kEps) {
      if (rrc_rank(after) > rrc_rank(before)) {
        raise("RRC", slot, uid,
              std::string("promotion ") + rrc_name(before) + "->" + rrc_name(after) +
                  " without a transmission");
      }
      // Tail timer: an idle slot advances the inactivity clock by exactly tau
      // (a never-promoted radio has no clock to advance, and a departed
      // user's radio left the framework's accounting — its clock freezes).
      if (idle_known_[i]) {
        const double expected_idle =
            (info.departed || endpoint.rrc.never_transmitted()) ? idle_prev_[i]
                                                                : idle_prev_[i] + tau;
        if (std::abs(idle_after - expected_idle) > kTightEps) {
          raise("RRC", slot, uid,
                "idle timer " + fmt(idle_after) + " s != expected " +
                    fmt(expected_idle) + " s after an idle slot");
        }
      }
    } else {
      // A transmission rewinds the inactivity clock: to 0 under Eq. 5
      // accounting, to the post-transfer residue (< tau) in continuous time.
      if (idle_after < -kTightEps || idle_after > tau + kTightEps) {
        raise("RRC", slot, uid,
              "idle timer " + fmt(idle_after) + " s outside [0, tau] after transmitting");
      }
      if (endpoint.rrc.never_transmitted()) {
        raise("RRC", slot, uid, "radio claims never-transmitted after delivering data");
      }
      if (!radio.continuous_tail && radio.t1_s > 0.0 && after != RrcState::kDch) {
        raise("RRC", slot, uid,
              std::string("transmission left the radio in ") + rrc_name(after) +
                  ", expected DCH (Eq. 5 accounting rewinds the timer to 0)");
      }
    }
    idle_prev_[i] = idle_after;
    idle_known_[i] = true;

    // Eq. (4) envelope: one slot's tail energy cannot exceed the strongest
    // state power held for the whole slot; Eq. 5 accounting additionally
    // charges no tail on transmission slots.
    const double tail = outcome.tail_mj[i];
    if (tail < -kTightEps || tail > slot_tail_cap) {
      raise("RRC", slot, uid,
            "slot tail energy " + fmt(tail) + " mJ outside [0, max(Pd,Pf)*tau=" +
                fmt(slot_tail_cap) + " mJ]");
    }
    if (!radio.continuous_tail && kb > kEps && tail > kTightEps) {
      raise("RRC", slot, uid,
            "Eq. 5 accounting charged tail energy " + fmt(tail) +
                " mJ on a transmission slot");
    }
    if (info.departed && tail > kTightEps) {
      raise("RRC", slot, uid,
            "tail energy " + fmt(tail) + " mJ charged after session departure");
    }
  }

  last_slot_ = slot;
  ++slots_checked_;
}

}  // namespace jstream::analysis
