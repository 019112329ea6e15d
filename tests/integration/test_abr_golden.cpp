// Golden-run digests for the ABR simulator: five schedulers (both operating
// modes and the greedy/adaptive variants) x the three quality selectors over a
// small cell whose capacity binds, plus one run without early stop and one
// faulted run. Each row pins slots_run, the per-field totals of every
// AbrRunMetrics field, and an xxh64 over the exact bits of every per-user
// result in user order — a change to any single user's QoE, energy split, or
// completion flag fails here.
// Intentional changes regenerate via scripts/regen_golden.sh (GOLDEN_REGEN=1)
// — review the diff like code.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "abr/abr_simulator.hpp"
#include "baselines/factory.hpp"
#include "common/csv.hpp"
#include "common/hash.hpp"

#ifndef JSTREAM_ABR_GOLDEN_CSV
#error "build must define JSTREAM_ABR_GOLDEN_CSV (path to abr_golden_runs.csv)"
#endif

namespace jstream {
namespace {

struct GoldenCase {
  std::string name;
  std::string scheduler;
  AbrScenarioConfig config;
};

AbrScenarioConfig binding_cell(const std::string& selector) {
  // Eight users whose ~450 KB/s mean demand exceeds the cell's 2880 KB/s, so
  // every scheduler must ration and the selectors see contended throughput.
  AbrScenarioConfig config;
  config.base = paper_scenario(/*users=*/8, /*seed=*/20261020);
  config.base.capacity_kbps = 0.8 * 450.0 * 8.0;
  config.base.max_slots = 400;
  config.duration_min_s = 60.0;
  config.duration_max_s = 150.0;
  config.selector = selector;
  return config;
}

std::vector<GoldenCase> golden_cases() {
  const std::vector<std::string> schedulers = {"default", "rtma", "rtma-adaptive",
                                               "ema", "ema-fast"};
  const std::vector<std::string> selectors = {"fixed", "buffer-based", "rate-based"};
  std::vector<GoldenCase> cases;
  for (const std::string& selector : selectors) {
    for (const std::string& scheduler : schedulers) {
      cases.push_back({"binding_" + selector, scheduler, binding_cell(selector)});
    }
  }
  // Idles to the horizon after every session ends: pins the post-completion
  // slots (RRC tails, idle scheduler calls) that early stop cuts off.
  AbrScenarioConfig full_horizon = binding_cell("buffer-based");
  full_horizon.base.early_stop = false;
  full_horizon.base.max_slots = 300;
  cases.push_back({"no_early_stop", "rtma", full_horizon});
  // The batch golden suite's fault recipe on the same cell: outages, stale
  // feedback, capacity dips and mid-stream departures on ABR slots.
  AbrScenarioConfig faulted = binding_cell("buffer-based");
  faulted.base.faults.outage_rate_per_kslot = 8.0;
  faulted.base.faults.staleness_rate_per_kslot = 12.0;
  faulted.base.faults.departure_fraction = 0.5;
  faulted.base.faults.capacity_rate_per_kslot = 6.0;
  faulted.base.faults.capacity_min_slots = 10;
  faulted.base.faults.capacity_max_slots = 40;
  faulted.base.faults.capacity_scale = 0.5;
  cases.push_back({"faulted", "ema", faulted});
  return cases;
}

const std::vector<std::string> kColumns = {
    "case",           "scheduler",  "slots_run",     "quality_seconds_kbps",
    "switches",       "rebuffer_s", "duration_s",    "trans_mj",
    "tail_mj",        "finished",   "per_user_xxh64"};

std::string fmt(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::vector<std::string> digest_row(const GoldenCase& golden) {
  const AbrRunMetrics m = simulate_abr(golden.config, make_scheduler(golden.scheduler));
  double quality = 0.0;
  std::int64_t switches = 0;
  double rebuffer = 0.0;
  double duration = 0.0;
  double trans = 0.0;
  double tail = 0.0;
  std::int64_t finished = 0;
  std::vector<std::uint64_t> bits;
  for (const AbrUserResult& u : m.per_user) {
    quality += u.qoe.quality_seconds_kbps;
    switches += u.qoe.switches;
    rebuffer += u.qoe.rebuffer_s;
    duration += u.duration_s;
    trans += u.trans_mj;
    tail += u.tail_mj;
    finished += u.playback_finished ? 1 : 0;
    bits.insert(bits.end(), {std::bit_cast<std::uint64_t>(u.qoe.quality_seconds_kbps),
                             static_cast<std::uint64_t>(u.qoe.switches),
                             std::bit_cast<std::uint64_t>(u.qoe.rebuffer_s),
                             std::bit_cast<std::uint64_t>(u.duration_s),
                             std::bit_cast<std::uint64_t>(u.trans_mj),
                             std::bit_cast<std::uint64_t>(u.tail_mj),
                             u.playback_finished ? 1ULL : 0ULL});
  }
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(
                    xxh64(bits.data(), bits.size() * sizeof(std::uint64_t))));
  return {golden.name,     golden.scheduler,     std::to_string(m.slots_run),
          fmt(quality),    std::to_string(switches), fmt(rebuffer),
          fmt(duration),   fmt(trans),           fmt(tail),
          std::to_string(finished), digest};
}

TEST(AbrGoldenRuns, EveryCaseMatchesTheCheckedInDigests) {
  const std::vector<GoldenCase> cases = golden_cases();

  if (std::getenv("GOLDEN_REGEN") != nullptr) {
    CsvWriter writer(JSTREAM_ABR_GOLDEN_CSV, kColumns);
    for (const GoldenCase& golden : cases) writer.row(digest_row(golden));
    GTEST_SKIP() << "GOLDEN_REGEN=1: rewrote " << JSTREAM_ABR_GOLDEN_CSV << " with "
                 << writer.rows_written() << " digests";
  }

  const CsvTable table = read_csv(JSTREAM_ABR_GOLDEN_CSV);
  ASSERT_EQ(table.header, kColumns)
      << "abr_golden_runs.csv header drifted — regenerate via scripts/regen_golden.sh";
  std::map<std::string, std::vector<std::string>> golden_rows;
  for (const std::vector<std::string>& row : table.rows) {
    golden_rows[row[0] + "/" + row[1]] = row;
  }
  ASSERT_EQ(golden_rows.size(), cases.size())
      << "abr_golden_runs.csv row set does not match the case list";

  // Every cell must reproduce exactly: the per-user hash leaves no room for
  // a tolerance, so the totals are held to the same standard.
  for (const GoldenCase& golden : cases) {
    const std::string key = golden.name + "/" + golden.scheduler;
    const auto it = golden_rows.find(key);
    ASSERT_NE(it, golden_rows.end()) << "no golden row for " << key;
    const std::vector<std::string> actual = digest_row(golden);
    for (std::size_t col = 2; col < kColumns.size(); ++col) {
      EXPECT_EQ(it->second[col], actual[col])
          << key << " drifted in column '" << kColumns[col]
          << "'. If the change is intentional, regenerate with "
             "scripts/regen_golden.sh and review the CSV diff.";
    }
  }
}

TEST(AbrGoldenRuns, CasesBindCapacityAndAdapt) {
  // Guards the suite's coverage: the digests only pin contention and
  // adaptation if the cell actually rations and the adaptive clients switch.
  const GoldenCase adaptive = golden_cases()[5];  // binding_buffer-based/default
  ASSERT_EQ(adaptive.name, "binding_buffer-based");
  const AbrRunMetrics m = simulate_abr(adaptive.config, make_scheduler("default"));
  EXPECT_GT(m.mean_rebuffer_s(), 0.0);
  EXPECT_GT(m.mean_switches(), 0.0);
  EXPECT_LT(m.slots_run, adaptive.config.base.max_slots);
  // The faulted case must actually fault: departed users never finish.
  const GoldenCase faulted = golden_cases().back();
  ASSERT_EQ(faulted.name, "faulted");
  EXPECT_LT(simulate_abr(faulted.config, make_scheduler(faulted.scheduler))
                .completion_rate(),
            1.0);
}

}  // namespace
}  // namespace jstream
