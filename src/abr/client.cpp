#include "abr/client.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"

namespace jstream {
namespace {

std::int64_t segment_count(double duration_s, double segment_s) {
  return ceil_to_count(duration_s / segment_s);
}

}  // namespace

AbrClient::AbrClient(double duration_s, double segment_s, QualityLadder ladder,
                     std::unique_ptr<QualitySelector> selector, double tau_s,
                     double throughput_ewma_alpha)
    : duration_s_(duration_s),
      segment_s_(segment_s),
      ladder_(std::move(ladder)),
      selector_(std::move(selector)),
      tau_s_(tau_s),
      ewma_alpha_(throughput_ewma_alpha),
      total_segments_(segment_count(duration_s, segment_s)) {
  require(duration_s_ > 0.0, "content duration must be positive");
  require(segment_s_ > 0.0, "segment duration must be positive");
  require(selector_ != nullptr, "client needs a quality selector");
  require(tau_s_ > 0.0, "slot length must be positive");
  require(ewma_alpha_ > 0.0 && ewma_alpha_ <= 1.0, "EWMA alpha must be in (0,1]");
}

void AbrClient::attach(UserEndpoint& endpoint) {
  endpoint.buffer = PlaybackBuffer(duration_s_, tau_s_);
  endpoint.content = this;
}

double AbrClient::frontier_rate_kbps() const {
  return ladder_.rate_kbps(current_level_);
}

double AbrClient::segment_remaining_kb() const {
  if (download_finished()) return 0.0;
  const double seg_duration =
      std::min(segment_s_, duration_s_ - as_double(segment_index_) * segment_s_);
  return seg_duration * frontier_rate_kbps() - segment_downloaded_kb_;
}

double AbrClient::remaining_kb() const {
  if (download_finished()) return 0.0;
  const double future_s =
      duration_s_ - as_double(segment_index_ + 1) * segment_s_;
  return segment_remaining_kb() +
         std::max(future_s, 0.0) * frontier_rate_kbps();
}

bool AbrClient::download_finished() const noexcept {
  return segment_index_ >= total_segments_;
}

void AbrClient::start_next_segment(const PlaybackBuffer& buffer) {
  AbrDecisionInput input;
  input.buffer_s = buffer.occupancy_s();
  input.last_level = current_level_;
  input.throughput_kbps = throughput_estimate_kbps_;
  const std::size_t chosen = selector_->select(input, ladder_);
  require(chosen < ladder_.levels(), "selector returned an unknown level");
  if (first_segment_started_ && chosen != current_level_) ++qoe_.switches;
  current_level_ = chosen;
  first_segment_started_ = true;
  segment_downloaded_kb_ = 0.0;
}

double AbrClient::deliver(double kb, PlaybackBuffer& buffer) {
  require(kb >= 0.0, "download amount must be non-negative");
  double left = kb;
  while (left > 0.0 && !download_finished()) {
    if (segment_downloaded_kb_ == 0.0 && !first_segment_started_) {
      start_next_segment(buffer);
    }
    const double seg_duration = std::min(
        segment_s_, duration_s_ - as_double(segment_index_) * segment_s_);
    const double seg_total_kb = seg_duration * frontier_rate_kbps();
    const double missing = seg_total_kb - segment_downloaded_kb_;
    const double take = std::min(left, missing);
    segment_downloaded_kb_ += take;
    left -= take;
    if (segment_downloaded_kb_ >= seg_total_kb - 1e-9) {
      // Segment complete: it becomes playable and scores its quality.
      buffer.deliver(seg_duration);
      qoe_.quality_seconds_kbps += seg_duration * frontier_rate_kbps();
      ++segment_index_;
      if (!download_finished()) start_next_segment(buffer);
    }
  }
  const double consumed = kb - left;
  // Segment selections above read the estimate from before this slot.
  const double rate = consumed / tau_s_;
  throughput_estimate_kbps_ =
      throughput_estimate_kbps_ == 0.0
          ? rate
          : (1.0 - ewma_alpha_) * throughput_estimate_kbps_ + ewma_alpha_ * rate;
  return consumed;
}

}  // namespace jstream
