#include "abr/abr_simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analysis/invariant_checker.hpp"
#include "baselines/factory.hpp"
#include "common/error.hpp"
#include "telemetry/registry.hpp"

namespace jstream {
namespace {

struct ValidationGuard {
  bool previous = analysis::validation_enabled();
  ValidationGuard() { analysis::set_validation_enabled(true); }
  ~ValidationGuard() { analysis::set_validation_enabled(previous); }
  ValidationGuard(const ValidationGuard&) = delete;
  ValidationGuard& operator=(const ValidationGuard&) = delete;
};

/// The fault sweep's "medium" cell (bench_fault_sweep).
FaultConfig medium_faults() {
  FaultConfig faults;
  faults.outage_rate_per_kslot = 5.0;
  faults.outage_min_slots = 5;
  faults.outage_max_slots = 30;
  faults.staleness_rate_per_kslot = 10.0;
  faults.staleness_max_slots = 30;
  faults.departure_fraction = 0.25;
  faults.capacity_rate_per_kslot = 2.0;
  faults.capacity_scale = 0.5;
  return faults;
}

/// Forwards to an inner scheduler and records the total remaining content
/// the snapshot of each slot reports.
class RemainingRecorder final : public Scheduler {
 public:
  RemainingRecorder(std::unique_ptr<Scheduler> inner, std::vector<double>& totals)
      : inner_(std::move(inner)), totals_(totals) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void reset(std::size_t users) override { inner_->reset(users); }
  [[nodiscard]] Allocation allocate(const SlotContext& ctx) override {
    Allocation out;
    allocate_into(ctx, out);
    return out;
  }
  void allocate_into(const SlotContext& ctx, Allocation& out) override {
    double total = 0.0;
    for (const UserSlotInfo& user : ctx.users) total += user.remaining_kb;
    totals_.push_back(total);
    inner_->allocate_into(ctx, out);
  }

 private:
  std::unique_ptr<Scheduler> inner_;
  std::vector<double>& totals_;
};

AbrScenarioConfig small_abr(std::uint64_t seed = 9) {
  AbrScenarioConfig config;
  config.base = paper_scenario(5, seed);
  config.base.max_slots = 3000;
  config.duration_min_s = 40.0;
  config.duration_max_s = 80.0;
  return config;
}

TEST(AbrSimulator, CompletesEverySession) {
  const AbrRunMetrics metrics = simulate_abr(small_abr(), make_scheduler("default"));
  EXPECT_DOUBLE_EQ(metrics.completion_rate(), 1.0);
  EXPECT_GT(metrics.total_energy_mj(), 0.0);
  EXPECT_LT(metrics.slots_run, 3000);
  for (const auto& user : metrics.per_user) {
    EXPECT_GE(user.qoe.mean_quality_kbps(user.duration_s), 300.0 - 1e-6);
    EXPECT_LE(user.qoe.mean_quality_kbps(user.duration_s), 600.0 + 1e-6);
  }
}

TEST(AbrSimulator, DeterministicPerSeed) {
  const AbrRunMetrics a = simulate_abr(small_abr(5), make_scheduler("default"));
  const AbrRunMetrics b = simulate_abr(small_abr(5), make_scheduler("default"));
  EXPECT_DOUBLE_EQ(a.total_energy_mj(), b.total_energy_mj());
  EXPECT_DOUBLE_EQ(a.mean_qoe_score(), b.mean_qoe_score());
}

TEST(AbrSimulator, BufferBasedBeatsLowestFixedOnQuality) {
  AbrScenarioConfig adaptive = small_abr();
  adaptive.selector = "buffer-based";
  AbrScenarioConfig floor_quality = small_abr();
  floor_quality.selector = "fixed";
  const AbrRunMetrics a = simulate_abr(adaptive, make_scheduler("default"));
  const AbrRunMetrics b = simulate_abr(floor_quality, make_scheduler("default"));
  // With ample capacity the adaptive client climbs the ladder.
  EXPECT_GT(a.mean_quality_kbps(), b.mean_quality_kbps());
  EXPECT_NEAR(b.mean_quality_kbps(), 300.0, 1e-6);
}

TEST(AbrSimulator, RateBasedStaysWithinEstimatedThroughput) {
  AbrScenarioConfig config = small_abr();
  config.selector = "rate-based";
  const AbrRunMetrics metrics = simulate_abr(config, make_scheduler("default"));
  EXPECT_DOUBLE_EQ(metrics.completion_rate(), 1.0);
}

TEST(AbrSimulator, WorksWithEveryFactoryScheduler) {
  for (const std::string& name : scheduler_names()) {
    const AbrRunMetrics metrics = simulate_abr(small_abr(3), make_scheduler(name));
    EXPECT_DOUBLE_EQ(metrics.completion_rate(), 1.0) << name;
  }
}

TEST(AbrSimulator, ContentionPushesQualityDown) {
  AbrScenarioConfig roomy = small_abr(21);
  AbrScenarioConfig squeezed = small_abr(21);
  squeezed.base.capacity_kbps = 1600.0;  // 5 users x ~320 KB/s
  const AbrRunMetrics a = simulate_abr(roomy, make_scheduler("default"));
  const AbrRunMetrics b = simulate_abr(squeezed, make_scheduler("default"));
  EXPECT_LT(b.mean_quality_kbps(), a.mean_quality_kbps());
}

TEST(AbrSimulator, RejectsBadConfiguration) {
  AbrScenarioConfig config = small_abr();
  config.duration_min_s = 0.0;
  EXPECT_THROW((void)simulate_abr(config, make_scheduler("default")), Error);
  config = small_abr();
  config.segment_s = 0.0;
  EXPECT_THROW((void)simulate_abr(config, make_scheduler("default")), Error);
  config = small_abr();
  EXPECT_THROW((void)simulate_abr(config, nullptr), Error);
  config = small_abr();
  config.ladder_kbps = {600.0, 300.0};
  EXPECT_THROW((void)simulate_abr(config, make_scheduler("default")), Error);
}

TEST(AbrSimulator, MediumFaultsTakeEffectUnderValidation) {
  // The fault layer reaches ABR slots through the shared gateway path: the
  // validator vets every faulted slot, and the injector's telemetry records
  // the departures and outaged user-slots it imposed.
  const ValidationGuard guard;
  AbrScenarioConfig benign = small_abr(11);
  benign.base = paper_scenario(10, 11);
  benign.base.max_slots = 300;
  benign.duration_min_s = 200.0;
  benign.duration_max_s = 280.0;
  AbrScenarioConfig faulted = benign;
  faulted.base.faults = medium_faults();

  auto& registry = telemetry::global_registry();
  const telemetry::Counter& departures = registry.counter("fault.departures");
  const telemetry::Counter& outages = registry.counter("fault.outage_user_slots");
  const std::int64_t departures_before = departures.value();
  const std::int64_t outages_before = outages.value();
  const AbrRunMetrics clean = simulate_abr(benign, make_scheduler("ema"));
  EXPECT_EQ(departures.value(), departures_before);
  EXPECT_EQ(outages.value(), outages_before);

  const AbrRunMetrics hit = simulate_abr(faulted, make_scheduler("ema"));
  EXPECT_GT(departures.value(), departures_before);
  EXPECT_GT(outages.value(), outages_before);
  EXPECT_NE(hit.total_energy_mj(), clean.total_energy_mj());
  EXPECT_NE(hit.mean_rebuffer_s(), clean.mean_rebuffer_s());
}

TEST(AbrSimulator, ArrivalSpreadStaggersSessions) {
  // Late arrivals start their sessions late, so the run lasts longer; they
  // stall for nothing before they arrive.
  AbrScenarioConfig config = small_abr();
  const AbrRunMetrics together = simulate_abr(config, make_scheduler("default"));
  config.base.arrival_spread_slots = 200;
  const AbrRunMetrics staggered = simulate_abr(config, make_scheduler("default"));
  EXPECT_DOUBLE_EQ(staggered.completion_rate(), 1.0);
  EXPECT_GT(staggered.slots_run, together.slots_run + 20);
}

TEST(AbrSimulator, BackhaulCapsEverySlotsDelivery) {
  // At a fixed quality level the remaining-content estimate is exact, so the
  // drop between consecutive snapshots is the KB each slot delivered.
  const auto per_slot_delivery = [](double backhaul_kbps) {
    AbrScenarioConfig config = small_abr();
    config.selector = "fixed";
    config.base.backhaul_kbps = backhaul_kbps;
    std::vector<double> totals;
    const AbrRunMetrics metrics = simulate_abr(
        config, std::make_unique<RemainingRecorder>(make_scheduler("default"), totals));
    EXPECT_DOUBLE_EQ(metrics.completion_rate(), 1.0);
    std::vector<double> delivered;
    for (std::size_t n = 1; n < totals.size(); ++n) {
      delivered.push_back(totals[n - 1] - totals[n]);
    }
    return delivered;
  };
  constexpr double kBackhaulKbps = 600.0;  // tau = 1 s: 600 KB per slot
  const std::vector<double> limited = per_slot_delivery(kBackhaulKbps);
  const std::vector<double> open = per_slot_delivery(0.0);
  ASSERT_FALSE(limited.empty());
  for (const double kb : limited) EXPECT_LE(kb, kBackhaulKbps + 1e-6);
  // The limit binds: some slot fills it, and the unlimited cell beats it.
  EXPECT_NEAR(*std::max_element(limited.begin(), limited.end()), kBackhaulKbps, 1e-6);
  EXPECT_GT(*std::max_element(open.begin(), open.end()), kBackhaulKbps);
  EXPECT_GT(limited.size(), open.size());
}

}  // namespace
}  // namespace jstream
