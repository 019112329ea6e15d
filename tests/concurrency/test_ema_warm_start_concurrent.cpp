// EMA solver workspaces under campaign concurrency: every campaign cell owns
// its own EmaScheduler, whose EmaDpWorkspace carries grow-only DP scratch
// and path counters from slot to slot. Shards racing on the pool must
// therefore be (a) TSan-clean — no workspace buffer is shared across cells —
// and (b) bit-identical to a serial run of the same grid, so thread count
// cannot perturb a single allocation, solve count, or metric.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "sim/campaign.hpp"
#include "sim/scenario.hpp"

namespace jstream {
namespace {

std::vector<ExperimentSpec> small_grid() {
  ScenarioConfig base = paper_scenario(/*users=*/4, /*seed=*/11);
  base.max_slots = 80;
  // Scarce pipe: capacity binds, so the cells run the full DP, not just the
  // separable shortcut.
  base.capacity_kbps = 500.0;
  SchedulerOptions exact;
  exact.ema.v_weight = 0.05;
  const std::vector<CampaignSeries> series{{"ema", "ema", exact}};
  return make_campaign_grid(base, series, /*replications=*/4);
}

void expect_identical(const std::vector<RunMetrics>& a,
                      const std::vector<RunMetrics>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].slots_run, b[i].slots_run);
    EXPECT_EQ(a[i].total_energy_mj(), b[i].total_energy_mj());
    EXPECT_EQ(a[i].total_rebuffer_s(), b[i].total_rebuffer_s());
    // The solve certificate is part of the determinism contract too: racing
    // shards must report the same solve counts and the same (zero) gaps.
    EXPECT_EQ(a[i].has_certificate, b[i].has_certificate);
    EXPECT_EQ(a[i].cert_exact_slots, b[i].cert_exact_slots);
    EXPECT_EQ(a[i].cert_certified_slots, b[i].cert_certified_slots);
    EXPECT_EQ(a[i].cert_gap_sum, b[i].cert_gap_sum);
    EXPECT_EQ(a[i].cert_gap_max, b[i].cert_gap_max);
  }
}

TEST(EmaWarmStartConcurrent, ParallelShardsMatchSerialBitForBit) {
  const std::vector<ExperimentSpec> specs = small_grid();
  CampaignOptions serial;
  serial.threads = 1;
  CampaignOptions parallel;
  parallel.threads = 4;
  const std::vector<RunMetrics> base = run_campaign(specs, serial);
  const std::vector<RunMetrics> racy = run_campaign(specs, parallel);
  expect_identical(base, racy);
  // Every cell ran the exact solver and counted each of its solves.
  for (const RunMetrics& m : base) {
    ASSERT_TRUE(m.has_certificate);
    EXPECT_GT(m.cert_exact_slots, 0);
    EXPECT_EQ(m.cert_certified_slots, 0);
  }
}

TEST(EmaWarmStartConcurrent, SimultaneousCampaignsDontInterfere) {
  // Two campaigns race in separate pools; each shard's solver workspaces
  // live inside its own scheduler instances, so neither perturbs the other.
  const std::vector<ExperimentSpec> specs = small_grid();
  CampaignOptions serial;
  serial.threads = 1;
  const std::vector<RunMetrics> base = run_campaign(specs, serial);

  std::vector<RunMetrics> racy_a;
  std::vector<RunMetrics> racy_b;
  CampaignOptions two;
  two.threads = 2;
  std::thread runner_a([&] { racy_a = run_campaign(specs, two); });
  std::thread runner_b([&] { racy_b = run_campaign(specs, two); });
  runner_a.join();
  runner_b.join();

  expect_identical(base, racy_a);
  expect_identical(base, racy_b);
}

}  // namespace
}  // namespace jstream
