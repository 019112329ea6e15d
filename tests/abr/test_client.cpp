#include "abr/client.hpp"

#include <gtest/gtest.h>

#include "abr/abr_simulator.hpp"
#include "baselines/factory.hpp"
#include "common/error.hpp"

namespace jstream {
namespace {

std::unique_ptr<AbrClient> make_client(double duration_s = 20.0,
                                       double segment_s = 4.0,
                                       const std::string& selector = "fixed") {
  return std::make_unique<AbrClient>(duration_s, segment_s,
                                     QualityLadder({300.0, 450.0, 600.0}),
                                     make_quality_selector(selector), 1.0, 0.2);
}

TEST(AbrClient, SegmentAccountingAtFixedQuality) {
  auto client = make_client();
  PlaybackBuffer buffer(client->duration_s(), 1.0);
  // Fixed selector -> level 0 (300 KB/s); one segment = 4 s * 300 = 1200 KB.
  buffer.begin_slot();
  EXPECT_DOUBLE_EQ(client->frontier_rate_kbps(), 300.0);
  EXPECT_DOUBLE_EQ(client->segment_remaining_kb(), 1200.0);
  EXPECT_DOUBLE_EQ(client->remaining_kb(), 20.0 * 300.0);
  // Half a segment downloaded: nothing playable yet.
  EXPECT_DOUBLE_EQ(client->deliver(600.0, buffer), 600.0);
  buffer.end_slot();
  buffer.begin_slot();
  EXPECT_DOUBLE_EQ(buffer.occupancy_s(), 0.0);
  // Completing the segment makes 4 s playable (next slot).
  EXPECT_DOUBLE_EQ(client->deliver(600.0, buffer), 600.0);
  buffer.end_slot();
  buffer.begin_slot();
  EXPECT_DOUBLE_EQ(buffer.occupancy_s(), 4.0);
  buffer.end_slot();
}

TEST(AbrClient, FullDownloadYieldsFullPlayback) {
  auto client = make_client(10.0, 4.0);  // segments 4+4+2 s at 300 KB/s
  PlaybackBuffer buffer(client->duration_s(), 1.0);
  buffer.begin_slot();
  const double total_kb = 10.0 * 300.0;
  EXPECT_DOUBLE_EQ(client->deliver(total_kb, buffer), total_kb);
  EXPECT_TRUE(client->download_finished());
  EXPECT_DOUBLE_EQ(client->remaining_kb(), 0.0);
  buffer.end_slot();
  for (int slot = 0; slot < 12 && !buffer.playback_finished(); ++slot) {
    buffer.begin_slot();
    buffer.end_slot();
  }
  EXPECT_TRUE(buffer.playback_finished());
}

TEST(AbrClient, ExcessDeliveryIsReturnedUnconsumed) {
  auto client = make_client(4.0, 4.0);  // single 1200 KB segment
  PlaybackBuffer buffer(client->duration_s(), 1.0);
  buffer.begin_slot();
  EXPECT_DOUBLE_EQ(client->deliver(2000.0, buffer), 1200.0);
  buffer.end_slot();
}

TEST(AbrClient, BufferBasedUpgradesAndCountsSwitches) {
  auto client = make_client(60.0, 4.0, "buffer-based");
  PlaybackBuffer buffer(client->duration_s(), 1.0);
  // Empty buffer -> lowest level first.
  buffer.begin_slot();
  EXPECT_DOUBLE_EQ(client->deliver(1200.0, buffer), 1200.0);  // seg 0 done
  buffer.end_slot();
  // Pump the buffer far above the cushion, then finish another segment: the
  // next selection should be a higher level, counting a switch.
  for (int k = 0; k < 12; ++k) {
    buffer.begin_slot();
    (void)client->deliver(client->segment_remaining_kb(), buffer);
    buffer.end_slot();
  }
  EXPECT_GT(client->current_level(), 0u);
  EXPECT_GT(client->qoe().switches, 0);
}

TEST(AbrClient, QoeScorePenalizesRebuffering) {
  AbrQoe smooth;
  smooth.quality_seconds_kbps = 600.0 * 100.0;
  AbrQoe stally = smooth;
  stally.rebuffer_s = 10.0;
  EXPECT_GT(smooth.score(100.0), stally.score(100.0));
  AbrQoe switchy = smooth;
  switchy.switches = 20;
  EXPECT_GT(smooth.score(100.0), switchy.score(100.0));
}

TEST(AbrClient, RecordsRebufferWhileStarved) {
  // Stall time is the slot engine's Eq. 8 accounting of the client's buffer:
  // a one-slot run starts cold, with nothing buffered.
  AbrScenarioConfig config;
  config.base = paper_scenario(/*users=*/1, /*seed=*/3);
  config.base.max_slots = 1;
  const AbrRunMetrics metrics = simulate_abr(config, make_scheduler("default"));
  EXPECT_DOUBLE_EQ(metrics.per_user[0].qoe.rebuffer_s, 1.0);
}

TEST(AbrClient, RejectsInvalidConstruction) {
  EXPECT_THROW(AbrClient(0.0, 4.0, QualityLadder({300.0}),
                         make_quality_selector("fixed"), 1.0, 0.2),
               Error);
  EXPECT_THROW(AbrClient(10.0, 0.0, QualityLadder({300.0}),
                         make_quality_selector("fixed"), 1.0, 0.2),
               Error);
  EXPECT_THROW(AbrClient(10.0, 4.0, QualityLadder({300.0}), nullptr, 1.0, 0.2),
               Error);
  EXPECT_THROW(AbrClient(10.0, 4.0, QualityLadder({300.0}),
                         make_quality_selector("fixed"), 1.0, /*alpha=*/0.0),
               Error);
}

}  // namespace
}  // namespace jstream
