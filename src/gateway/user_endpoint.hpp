// Per-user simulation state bundled for the gateway framework: the radio
// channel, the streaming session, the client playback buffer, and the RRC
// machine that accounts tail energy.
//
// The endpoint is also the one place that knows how content turns into
// playback. The InfoCollector asks it for the frontier rate and the remaining
// KB, and the DataTransmitter hands it each slot's bytes through deliver().
// A CBR/VBR session is handled inline; a segmented client (the ABR
// simulator's AbrClient) plugs in as a ContentModel.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>

#include "media/playback_buffer.hpp"
#include "media/video_session.hpp"
#include "radio/rrc.hpp"
#include "radio/signal_model.hpp"
#include "radio/signal_trace.hpp"

namespace jstream {

/// A content model other than the endpoint's own CBR/VBR session: a
/// segmented client that decides what the bytes it receives are worth.
class ContentModel {
 public:
  virtual ~ContentModel() = default;

  /// Rate the gateway must sustain at the delivery frontier, KB/s.
  [[nodiscard]] virtual double frontier_rate_kbps() const = 0;

  /// Content still to be delivered, KB (0 once the download is complete).
  [[nodiscard]] virtual double remaining_kb() const = 0;

  /// Accepts up to `kb` of this slot's delivery, registers the playback it
  /// completes in `buffer`, and returns the KB actually consumed (at most
  /// `kb`).
  virtual double deliver(double kb, PlaybackBuffer& buffer) = 0;
};

/// One mobile user as seen by the gateway.
struct UserEndpoint {
  /// departure_slot value meaning "streams to the end of the run".
  static constexpr std::int64_t kNeverSlot = std::numeric_limits<std::int64_t>::max();

  std::unique_ptr<SignalModel> signal;
  VideoSession session;
  PlaybackBuffer buffer;
  RrcStateMachine rrc;
  double delivered_kb = 0.0;   ///< content pushed over the air so far
  double content_time_s = 0.0; ///< playback position of the delivered prefix
  std::int64_t start_slot = 0; ///< first slot this session exists (arrivals)
  /// First slot this session no longer exists. This is the single source of
  /// truth for every departure path — fault-injected mid-stream aborts (the
  /// Simulator stamps the FaultSchedule's drawn slots here) and session-layer
  /// departures alike; the InfoCollector derives UserSlotInfo::departed from
  /// it. kNeverSlot = streams to the end.
  std::int64_t departure_slot = kNeverSlot;
  /// Bumped by the session layer each time this population slot is bound to a
  /// new session, so per-user consumers (the paper-invariant validator's
  /// shadow state) can detect mid-run rebinds. 0 for static populations.
  std::int32_t session_epoch = 0;

  /// Precomputed channel substrate (campaign engine). When attached, the
  /// InfoCollector reads sig/v(sig)/P(sig) from the trace matrices instead
  /// of driving `signal` — array loads replace the per-slot virtual call and
  /// the two link-fit evaluations. Non-owning: the Simulator (or whoever
  /// attaches it) keeps the shared_ptr alive for the run.
  const SignalTraceSet* trace = nullptr;
  std::size_t trace_user = 0;  ///< this endpoint's row in `trace`

  /// Segmented content model replacing `session` (non-owning; whoever
  /// attaches it keeps it alive for the run). Null = the CBR/VBR session.
  ContentModel* content = nullptr;

  void attach_trace(const SignalTraceSet* trace_set, std::size_t user) noexcept {
    trace = trace_set;
    trace_user = user;
  }

  UserEndpoint(std::unique_ptr<SignalModel> signal_model, VideoSession video,
               RadioProfile radio, double tau_s, std::int64_t session_start_slot = 0)
      : signal(std::move(signal_model)),
        session(std::move(video)),
        buffer(session.total_playback_s(), tau_s),
        rrc(radio),
        start_slot(session_start_slot) {}

  /// True once the session has started by `slot`.
  [[nodiscard]] bool arrived(std::int64_t slot) const noexcept {
    return slot >= start_slot;
  }

  /// True once the session has ended (fault abort or session-layer departure).
  [[nodiscard]] bool departed(std::int64_t slot) const noexcept {
    return slot >= departure_slot;
  }

  /// Stamp the departure slot (kNeverSlot clears it).
  void depart_at(std::int64_t slot) noexcept { departure_slot = slot; }

  /// Rate of the content at the delivery frontier, KB/s (identical to the
  /// wall-clock rate for CBR sessions).
  [[nodiscard]] double frontier_rate_kbps() const {
    return content != nullptr ? content->frontier_rate_kbps()
                              : session.bitrate_at_time(content_time_s);
  }

  /// Content still to be delivered, KB.
  [[nodiscard]] double remaining_kb() const {
    return content != nullptr ? content->remaining_kb()
                              : session.size_kb() - delivered_kb;
  }

  /// Takes `kb` of this slot's delivery and returns the KB consumed, which
  /// is what the slot's energy, delivered bytes and RRC airtime count. The
  /// CBR/VBR session consumes everything it is offered.
  double deliver(double kb) {
    if (content != nullptr) {
      const double consumed = content->deliver(kb, buffer);
      delivered_kb += consumed;
      return consumed;
    }
    delivered_kb += kb;
    // Convert bytes to playback time on the content timeline so that
    // delivering the whole file yields exactly M_i even for VBR sessions.
    const double playback_s = session.advance_playback(content_time_s, kb);
    content_time_s += playback_s;
    buffer.deliver(playback_s);
    return kb;
  }

  /// True while the user still needs scheduling: content left to deliver or
  /// playback still running.
  [[nodiscard]] bool active() const {
    return remaining_kb() > 0.0 || !buffer.playback_finished();
  }
};

}  // namespace jstream
