// ABR client state: a segmented session, its download-throughput estimate,
// and the QoE bookkeeping (mean quality, switches).
//
// The client is the segmented content model of a gateway endpoint
// (UserEndpoint::content): the collector reads its frontier rate and
// remaining bytes, and the transmitter hands it each slot's delivery. A
// segment becomes playable only when fully downloaded (the segmented analogue
// of the paper's "data shard usable when fully accepted") and then enters the
// endpoint's PlaybackBuffer. Quality for a segment is chosen by the
// QualitySelector the moment its download begins.
#pragma once

#include <cstdint>
#include <memory>

#include "abr/ladder.hpp"
#include "abr/policies.hpp"
#include "common/units.hpp"
#include "gateway/user_endpoint.hpp"
#include "media/playback_buffer.hpp"

namespace jstream {

/// QoE accumulators of one ABR session.
struct AbrQoe {
  double quality_seconds_kbps = 0.0;  ///< integral of played quality rate
  std::int64_t switches = 0;          ///< quality changes between segments
  /// Total Eq. 8 stall time. The slot engine accounts it from the endpoint's
  /// buffer; the client leaves it 0 and simulate_abr fills it in.
  double rebuffer_s = 0.0;

  /// Mean representation rate over the content duration.
  [[nodiscard]] double mean_quality_kbps(double duration_s) const {
    return duration_s > 0.0 ? quality_seconds_kbps / duration_s : 0.0;
  }

  /// A standard linear QoE score: mean quality minus penalties.
  [[nodiscard]] double score(double duration_s, double rebuffer_penalty_kbps = 600.0,
                             double switch_penalty_kbps = 30.0) const {
    return mean_quality_kbps(duration_s) -
           rebuffer_penalty_kbps * (duration_s > 0.0 ? rebuffer_s / duration_s : 0.0) -
           switch_penalty_kbps *
               (duration_s > 0.0 ? as_double(switches) / duration_s : 0.0);
  }
};

/// One streaming client downloading a segmented title.
class AbrClient final : public ContentModel {
 public:
  /// `duration_s` total content time, split into `segment_s`-long segments
  /// (the last may be shorter). The selector is owned by the client.
  /// `throughput_ewma_alpha` smooths the per-slot download rate (KB per
  /// slot over `tau_s`) that rate-based selectors read.
  AbrClient(double duration_s, double segment_s, QualityLadder ladder,
            std::unique_ptr<QualitySelector> selector, double tau_s,
            double throughput_ewma_alpha);

  /// Makes this client `endpoint`'s content model and re-sizes the
  /// endpoint's playback buffer to the title. The endpoint keeps this
  /// client's address: the client must stay put and outlive the endpoint's
  /// slots.
  void attach(UserEndpoint& endpoint);

  /// Bitrate of the segment currently downloading, KB/s (what the gateway
  /// needs to sustain).
  [[nodiscard]] double frontier_rate_kbps() const override;

  /// Bytes still missing from the current segment, KB (0 once the session is
  /// fully downloaded).
  [[nodiscard]] double segment_remaining_kb() const;

  /// Total bytes still to download at current quality decisions (the current
  /// segment's remainder plus future segments estimated at the current
  /// level).
  [[nodiscard]] double remaining_kb() const override;

  /// Feeds one slot's `kb` of downloaded data. Completed segments enter
  /// `buffer` (which must be inside its slot); a new segment's quality is
  /// selected when its download begins. Returns the KB actually consumed:
  /// less than `kb` when the offer, sized at the old level, outlasts the
  /// title after a down-switch. The consumed KB then update the throughput
  /// estimate.
  double deliver(double kb, PlaybackBuffer& buffer) override;

  [[nodiscard]] const AbrQoe& qoe() const noexcept { return qoe_; }
  [[nodiscard]] double duration_s() const noexcept { return duration_s_; }
  [[nodiscard]] bool download_finished() const noexcept;
  [[nodiscard]] std::size_t current_level() const noexcept { return current_level_; }

 private:
  void start_next_segment(const PlaybackBuffer& buffer);

  double duration_s_;
  double segment_s_;
  QualityLadder ladder_;
  std::unique_ptr<QualitySelector> selector_;
  double tau_s_;
  double ewma_alpha_;
  AbrQoe qoe_;

  std::int64_t segment_index_ = 0;     ///< segment currently downloading
  std::int64_t total_segments_ = 0;
  double segment_downloaded_kb_ = 0.0;
  std::size_t current_level_ = 0;
  bool first_segment_started_ = false;
  double throughput_estimate_kbps_ = 0.0;  ///< EWMA of consumed KB / tau
};

}  // namespace jstream
