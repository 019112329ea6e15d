// Workload B, campaign-baselines-n200: the figure-regeneration path.
//
// Closed loop of campaign operations. Each operation builds the grid
// {default, throttling, onoff, salsa, estreamer, rtma, ema-fast} x 2 seeds at
// N = 200 over the full 10 000-slot paper horizon (early stop on, 100-200 MB
// sessions, 500 KB/s per user) and runs it through run_campaign_distributed
// with 2 worker processes x 2 threads and a fresh private TraceCache. Radio
// trace generation, the baselines and the gateway carry the work; the
// fork / result-frame / merge path runs once per operation.
//
// The traced run replays each operation in-process, layer by layer: trace
// generation per seed, every cell through Simulator with and without a
// timed scheduler, and the in-process run_campaign followed by the
// result-frame encode/decode. Each must reproduce the distributed merge.
#include <memory>
#include <vector>

#include "baselines/factory.hpp"
#include "harness.hpp"
#include "sim/campaign.hpp"
#include "sim/distrib.hpp"
#include "sim/experiment.hpp"
#include "sim/scenario.hpp"
#include "sim/trace_cache.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kUsers = 200;
constexpr std::size_t kSeedsPerOp = 2;
constexpr std::size_t kProcesses = 2;
constexpr std::size_t kThreadsPerProcess = 2;
/// metrics_digest of the default seed's operation, recorded at the commit
/// that introduced this benchmark.
constexpr std::uint64_t kReferenceDigest = 0x5e51d7005f68ee5aULL;

std::vector<jstream::ExperimentSpec> make_specs(std::uint64_t seed) {
  static const char* const kSchedulers[] = {"default", "throttling", "onoff",   "salsa",
                                            "estreamer", "rtma",     "ema-fast"};
  jstream::SchedulerOptions options;
  options.ema.v_weight = 0.05;
  std::vector<jstream::CampaignSeries> series;
  for (const char* name : kSchedulers) series.push_back({name, name, options});
  jstream::ScenarioConfig base = jstream::paper_scenario(kUsers, seed);
  base.capacity_kbps = 500.0 * static_cast<double>(kUsers);
  base.video_min_mb = 100.0;
  base.video_max_mb = 200.0;
  return jstream::make_campaign_grid(base, series, kSeedsPerOp);
}

/// Output check shared by every path: one result per cell, each a real run.
std::int64_t count_bad_cells(const std::vector<jstream::ExperimentSpec>& specs,
                             const std::vector<jstream::RunMetrics>& results) {
  if (results.size() != specs.size()) return static_cast<std::int64_t>(specs.size());
  std::int64_t bad = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const jstream::RunMetrics& r = results[i];
    if (r.per_user.size() != kUsers || r.slots_run <= 0 ||
        r.slots_run > specs[i].scenario.max_slots) {
      ++bad;
    }
  }
  return bad;
}

double user_slots(const std::vector<jstream::RunMetrics>& results) {
  double total = 0.0;
  for (const jstream::RunMetrics& r : results) {
    total += static_cast<double>(r.per_user.size()) * static_cast<double>(r.slots_run);
  }
  return total;
}

struct Op {
  std::int64_t setup_ns = 0;
  std::int64_t wall_ns = 0;
  double user_slots = 0.0;
  std::uint64_t digest = 0;
  std::int64_t cells = 0;
  std::int64_t failed = 0;
  std::vector<jstream::RunMetrics> results;
};

/// One distributed campaign operation.
Op run_distributed(std::uint64_t seed) {
  Op op;
  const std::int64_t setup_start = now_ns();
  const std::vector<jstream::ExperimentSpec> specs = make_specs(seed);
  jstream::TraceCache cache;
  jstream::DistribOptions distrib;
  distrib.processes = kProcesses;
  distrib.campaign.threads = kThreadsPerProcess;
  distrib.campaign.cache = &cache;
  const std::int64_t start = now_ns();
  op.setup_ns = start - setup_start;
  op.results = jstream::run_campaign_distributed(specs, distrib);
  op.wall_ns = now_ns() - start;
  op.cells = static_cast<std::int64_t>(specs.size());
  op.failed = count_bad_cells(specs, op.results);
  op.user_slots = user_slots(op.results);
  op.digest = jstream::metrics_digest(std::span<const jstream::RunMetrics>(op.results));
  return op;
}

/// Serial in-process replay of one operation's cells over pre-generated
/// traces; with `log` every scheduler call is timed and spanned.
std::vector<jstream::RunMetrics> replay_cells(
    const std::vector<jstream::ExperimentSpec>& specs,
    const std::vector<std::shared_ptr<const jstream::SignalTraceSet>>& traces, CallLog* log,
    SpanBuffer* spans, std::vector<double>* cell_ms, std::vector<double>* solve_us,
    double* solve_ns_sum, double* wall_ns) {
  std::vector<jstream::RunMetrics> results;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const jstream::ExperimentSpec& spec = specs[i];
    if (log != nullptr) log->clear();
    const std::int64_t start = now_ns();
    jstream::Simulator simulator(
        spec.scenario,
        maybe_decorate(
            jstream::make_scheduler_for_scenario(spec.scheduler, spec.options, spec.scenario),
            Inject::kNone, log),
        jstream::SchedulingMode::kBaseline, traces[i / (specs.size() / kSeedsPerOp)]);
    results.push_back(simulator.run(false));
    const std::int64_t end = now_ns();
    *wall_ns += static_cast<double>(end - start);
    if (cell_ms != nullptr) cell_ms->push_back(static_cast<double>(end - start) / 1e6);
    if (log == nullptr) continue;
    const std::int64_t cell_span =
        spans != nullptr ? spans->add(SpanBuffer::kCell, -1, start, end) : -1;
    for (std::size_t c = 0; c < log->count; ++c) {
      const double ns = static_cast<double>(log->end[c] - log->start[c]);
      *solve_ns_sum += ns;
      solve_us->push_back(ns / 1e3);
      if (spans != nullptr) spans->add(SpanBuffer::kSolve, cell_span, log->start[c], log->end[c]);
    }
  }
  return results;
}

std::uint64_t digest_of(const std::vector<jstream::RunMetrics>& results) {
  return jstream::metrics_digest(std::span<const jstream::RunMetrics>(results));
}

}  // namespace

RunResult run_campaign_baselines(const Options& options) {
  RunResult result;
  if (!options.trace) {
    const Measured measured = measure(
        options, result, kSeedsPerOp, false, kReferenceDigest, [](std::uint64_t seed) {
          const Op op = run_distributed(seed);
          Sample sample;
          sample.op_us.push_back(static_cast<double>(op.wall_ns) / 1e3);
          sample.setup_s = static_cast<double>(op.setup_ns) / 1e9;
          sample.user_slots = op.user_slots;
          sample.digest = op.digest;
          sample.attempted = op.cells;
          sample.failed = op.failed;
          return sample;
        });
    emit_end_to_end(result, measured, 0.75, true);
    result.note("op", "run_campaign_distributed over 7 schedulers x 2 seeds");
    return result;
  }

  // Traced run: the distributed operation, the serial replay with and
  // without the decorator, and the in-process engine plus frame codec.
  SpanBuffer spans(span_capacity(options));
  SpanBuffer* span_ptr = spans.enabled() ? &spans : nullptr;
  CallLog log(20000);
  std::vector<double> trace_gen_ms;
  std::vector<double> cell_ms;
  std::vector<double> solve_us;
  std::vector<double> codec_ms;
  double solve_ns_sum = 0.0;
  std::vector<std::pair<std::string, double>> layer;
  // Radio layer: one trace per seed of the operation, generated by whichever
  // replay runs first on the operation and shared by both.
  std::uint64_t traces_seed = 0;
  std::vector<std::shared_ptr<const jstream::SignalTraceSet>> traces;
  const auto traces_for = [&](std::uint64_t seed,
                              const std::vector<jstream::ExperimentSpec>& specs) {
    if (!traces.empty() && traces_seed == seed) return;
    traces.clear();
    traces_seed = seed;
    for (std::size_t s = 0; s < kSeedsPerOp; ++s) {
      const std::int64_t start = now_ns();
      traces.push_back(jstream::generate_signal_trace_set(
          specs[s * (specs.size() / kSeedsPerOp)].scenario));
      const std::int64_t end = now_ns();
      trace_gen_ms.push_back(static_cast<double>(end - start) / 1e6);
      if (span_ptr != nullptr) span_ptr->add(SpanBuffer::kTraceGen, -1, start, end);
    }
  };
  const auto replay = [&](std::uint64_t seed, bool traced) {
    const std::vector<jstream::ExperimentSpec> specs = make_specs(seed);
    traces_for(seed, specs);
    double wall_ns = 0.0;
    double unused = 0.0;
    const std::vector<jstream::RunMetrics> results =
        traced ? replay_cells(specs, traces, &log, span_ptr, &cell_ms, &solve_us,
                              &solve_ns_sum, &wall_ns)
               : replay_cells(specs, traces, nullptr, nullptr, nullptr, nullptr, &unused,
                              &wall_ns);
    return VariantRun{digest_of(results), wall_ns, static_cast<std::int64_t>(specs.size()),
                      count_bad_cells(specs, results)};
  };
  const std::vector<Variant> variants = {
      [](std::uint64_t seed, bool) {
        const Op op = run_distributed(seed);
        return VariantRun{op.digest, static_cast<double>(op.wall_ns), op.cells, op.failed};
      },
      [&](std::uint64_t seed, bool) { return replay(seed, true); },
      [&](std::uint64_t seed, bool) { return replay(seed, false); },
      [&](std::uint64_t seed, bool first) {
        // The in-process engine over a fresh private cache.
        const std::vector<jstream::ExperimentSpec> specs = make_specs(seed);
        jstream::TraceCache cache;
        jstream::CampaignOptions campaign;
        campaign.threads = kThreadsPerProcess;
        campaign.cache = &cache;
        const std::int64_t start = now_ns();
        const std::vector<jstream::RunMetrics> in_process =
            jstream::run_campaign(specs, campaign);
        const std::int64_t end = now_ns();
        // Result frames: the canonical encoding the workers ship to the parent.
        jstream::ByteWriter writer;
        for (const jstream::RunMetrics& r : in_process) jstream::encode_run_metrics(writer, r);
        jstream::ByteReader reader(writer.bytes());
        std::vector<jstream::RunMetrics> decoded;
        for (std::size_t i = 0; i < in_process.size(); ++i) {
          decoded.push_back(jstream::decode_run_metrics(reader));
        }
        reader.finish();
        const std::int64_t codec_end = now_ns();
        codec_ms.push_back(static_cast<double>(codec_end - end) / 1e6);
        if (span_ptr != nullptr) {
          span_ptr->add(SpanBuffer::kCampaign, -1, start, end);
          span_ptr->add(SpanBuffer::kCodec, -1, end, codec_end);
        }
        if (first) {
          layer.emplace_back("trace_cache.generations",
                             static_cast<double>(cache.generations()));
          layer.emplace_back("trace_cache.hits", static_cast<double>(cache.hits()));
          layer.emplace_back("distrib.frame_bytes", static_cast<double>(writer.bytes().size()));
        }
        VariantRun run{digest_of(decoded), static_cast<double>(end - start),
                       static_cast<std::int64_t>(specs.size()),
                       count_bad_cells(specs, in_process)};
        if (digest_of(in_process) != run.digest) ++run.failed;
        return run;
      },
  };
  const std::vector<double> ns =
      measure_traced(options, result, kSeedsPerOp, kReferenceDigest, variants, spans);
  double cell_sum_ms = 0.0;
  for (const double c : cell_ms) cell_sum_ms += c;
  layer.emplace_back("radio.trace_gen_ms", median(trace_gen_ms));
  layer.emplace_back("sim.cell_ms.p50", median(cell_ms));
  layer.emplace_back("core.solve_us.p50", percentile(solve_us, 0.5));
  layer.emplace_back("core.solve_us.p99", percentile(solve_us, 0.99));
  layer.emplace_back("core.solve_us.p999", percentile(solve_us, 0.999));
  layer.emplace_back("core.solve_share", solve_ns_sum / (cell_sum_ms * 1e6));
  layer.emplace_back("distrib.encode_decode_ms", median(codec_ms));
  layer.emplace_back("trace.overhead_frac", ns[1] / ns[2] - 1.0);
  emit_layer_metrics(result, layer);
  return result;
}

}  // namespace perfbench
