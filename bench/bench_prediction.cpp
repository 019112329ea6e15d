// Prediction study: what does short-term channel prediction buy, and how fast
// does the benefit decay with forecast error? Sweeps the prediction-assisted
// EMA (PredictiveEmaScheduler, docs/PREDICTION.md) over a horizon x error-sigma
// grid — benign, medium-fault, and stale-feedback variants — and reports for
// every cell the fraction of the oracle's energy headroom it recovers over the
// prediction-free EMA:
//
//     recovered = (E_ema - E_pred) / (E_ema - E_oracle)
//
// where E_oracle is the offline transportation bound (sim/oracle.hpp).
//
// With --validate every slot passes the paper-invariant checker AND (at the
// full horizon only; REPRO_SLOTS runs report without gating) the bench
// enforces the acceptance bar: perfect-forecast predictive EMA must recover
// >= 50% of the oracle headroom on the paper scenario.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/invariant_checker.hpp"
#include "bench_util.hpp"
#include "common/error.hpp"
#include "core/predictive_ema.hpp"
#include "sim/fault.hpp"
#include "sim/forecast.hpp"
#include "sim/oracle.hpp"

using namespace jstream;
using namespace jstream::bench;

namespace {

/// The bench_fault_sweep "medium" cell: deep fades, stale feedback windows,
/// departures, capacity dips.
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

/// Stale-feedback-heavy cell: the forecast window interacts with the fault
/// layer (track_fault_staleness freezes predictions across stale windows).
FaultConfig stale_faults() {
  FaultConfig faults;
  faults.staleness_rate_per_kslot = 25.0;
  faults.staleness_min_slots = 5;
  faults.staleness_max_slots = 40;
  return faults;
}

struct Variant {
  std::string name;
  ScenarioConfig scenario;
};

int run(int argc, const char* const* argv) {
  Cli cli = make_cli("bench_prediction",
                     "predictive EMA horizon x error sweep vs the oracle bound",
                     10000, 30);
  const CommonArgs args = parse_common(cli, argc, argv);

  ScenarioConfig benign = paper_scenario(args.users, args.seed);
  benign.max_slots = args.slots;

  ScenarioConfig faulted = benign;
  faulted.faults = medium_faults();

  ScenarioConfig stale = benign;
  stale.faults = stale_faults();
  stale.forecast.track_fault_staleness = true;

  const std::vector<Variant> variants = {
      {"benign", benign}, {"faulted", faulted}, {"stale", stale}};
  const std::vector<std::int64_t> horizons = {30, 90, 300};
  const std::vector<double> sigmas = {0.0, 4.0, 12.0};

  // Build the whole study as one campaign grid: the prediction-free EMA
  // baseline plus every (horizon, sigma) predictive cell per variant. Cells
  // of a variant share one cached channel substrate (sigma perturbs only the
  // forecast, and the trace key separates forecast fingerprints from the
  // plain series).
  std::vector<ExperimentSpec> specs;
  for (const Variant& variant : variants) {
    {
      ExperimentSpec spec;
      spec.label = variant.name + "/ema";
      spec.scheduler = "ema";
      spec.scenario = variant.scenario;
      specs.push_back(std::move(spec));
    }
    for (const std::int64_t horizon : horizons) {
      for (const double sigma : sigmas) {
        ExperimentSpec spec;
        spec.label = variant.name + "/H=" + std::to_string(horizon) +
                     "/sigma=" + format_double(sigma, 0);
        spec.scheduler = "ema-predictive";
        spec.scenario = variant.scenario;
        spec.scenario.forecast.sigma_dbm = sigma;
        spec.options.ema_predictive.horizon_slots = horizon;
        specs.push_back(std::move(spec));
      }
    }
  }
  const std::vector<RunMetrics> results = run_grid(args, specs);

  Table table("prediction study (recovered = share of oracle headroom over ema)",
              {"series", "PE (mJ/us)", "PC (ms/us)", "recovered"});
  std::vector<std::vector<std::string>> csv_rows;
  double benign_perfect_best = 0.0;

  std::size_t at = 0;
  for (const Variant& variant : variants) {
    const OracleResult oracle = offline_energy_bound(variant.scenario);
    const RunMetrics& ema = results[at++];
    const double headroom_mj = ema.total_energy_mj() - oracle.total_energy_mj();
    table.row({variant.name + "/ema", format_double(ema.avg_energy_per_user_slot_mj(), 1),
               format_double(1000.0 * ema.avg_rebuffer_per_user_slot_s(), 1), "--"});
    csv_rows.push_back({variant.name, "ema", "0", "0",
                        format_double(ema.avg_energy_per_user_slot_mj(), 4),
                        format_double(1000.0 * ema.avg_rebuffer_per_user_slot_s(), 4),
                        "0"});
    for (const std::int64_t horizon : horizons) {
      for (const double sigma : sigmas) {
        const RunMetrics& m = results[at];
        const double recovered =
            headroom_mj > 0.0
                ? (ema.total_energy_mj() - m.total_energy_mj()) / headroom_mj
                : 0.0;
        if (variant.name == "benign" && sigma == 0.0) {
          benign_perfect_best = std::max(benign_perfect_best, recovered);
        }
        table.row({specs[at].label, format_double(m.avg_energy_per_user_slot_mj(), 1),
                   format_double(1000.0 * m.avg_rebuffer_per_user_slot_s(), 1),
                   format_double(100.0 * recovered, 1) + "%"});
        csv_rows.push_back({variant.name, "ema-predictive", std::to_string(horizon),
                            format_double(sigma, 1),
                            format_double(m.avg_energy_per_user_slot_mj(), 4),
                            format_double(1000.0 * m.avg_rebuffer_per_user_slot_s(), 4),
                            format_double(recovered, 4)});
        ++at;
      }
    }
  }
  table.print();

  std::printf("\nReading: the crest credit and deferral terms shift units toward\n"
              "the cheap slots the forecast exposes, so long-horizon cells recover\n"
              "all of the oracle's headroom and then some (best benign sigma=0\n"
              "cell: %.0f%%) — >100%% is legitimate because the offline bound is a\n"
              "cheapest-cell greedy that pays heavy RRC tail energy, i.e. an upper\n"
              "bound on the true optimum. On this periodic channel moderate sigma\n"
              "barely dents (and via price-space convexity can even inflate) the\n"
              "horizon-mean credit, so long-horizon sweeps are robust to noise;\n"
              "faults and stale feedback attenuate but do not erase the gain.\n",
              100.0 * benign_perfect_best);

  if (analysis::validation_enabled() && args.slots >= 10000) {
    require(benign_perfect_best >= 0.5,
            "acceptance gate: perfect-forecast predictive EMA recovered " +
                format_double(100.0 * benign_perfect_best, 1) +
                "% of the oracle headroom on the paper scenario (need >= 50%)");
    std::printf("\nvalidate: perfect-forecast recovery %.1f%% >= 50%% gate ok\n",
                100.0 * benign_perfect_best);
  }

  maybe_write_csv(args.csv_dir, "prediction.csv",
                  {"variant", "scheduler", "horizon", "sigma_dbm", "pe_mj",
                   "pc_ms", "recovered"},
                  csv_rows);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return guarded_main("bench_prediction", argc, argv, run);
}
