// Shared measurement machinery of the end-to-end benchmark: the clock, the
// allocation counter, the preallocated span buffer, the timing decorator
// around a Scheduler, percentiles, peak RSS, and the result record every
// workload fills in. Everything here observes the program from outside —
// through public entry points and the Scheduler interface — and never
// changes what it computes.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "gateway/scheduler.hpp"

namespace perfbench {

/// Monotonic nanoseconds.
[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Heap allocations made by this process so far (the binary replaces the
/// global operator new to count them).
[[nodiscard]] std::uint64_t allocations() noexcept;

/// Command-line options of one benchmark run.
enum class Inject { kNone, kPassThrough, kSlow };

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  Inject inject = Inject::kNone;  ///< sensitivity self-check decorators (workload A)
  std::string span_out;           ///< traced runs write their spans here
};

/// The seed the recorded reference digests belong to.
inline constexpr std::uint64_t kDefaultSeed = 42;

/// Spans kept in preallocated memory during a traced run and written out as
/// a Chrome trace-event file at exit. A full buffer drops further spans (and
/// counts them) instead of allocating.
class SpanBuffer {
 public:
  enum Name : std::uint8_t { kUnit, kSlot, kSolve, kTraceGen, kCell, kCampaign, kCodec };

  explicit SpanBuffer(std::size_t capacity = 0);
  /// Records a span; returns its index (or -1 when disabled or full).
  std::int64_t add(Name name, std::int64_t parent, std::int64_t start_ns,
                   std::int64_t end_ns) noexcept;
  /// Sets the end of a span opened before its children were known.
  void close(std::int64_t index, std::int64_t end_ns) noexcept;
  [[nodiscard]] bool enabled() const noexcept { return !spans_.empty(); }
  [[nodiscard]] std::int64_t dropped() const noexcept { return dropped_; }
  void write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t parent;
    Name name;
  };
  std::vector<Span> spans_;
  std::size_t used_ = 0;
  std::int64_t dropped_ = 0;
};

/// Per-call record of a TimedScheduler: call start and end. Preallocated;
/// calls past capacity are counted but not kept.
struct CallLog {
  explicit CallLog(std::size_t capacity);
  void clear() noexcept {
    count = 0;
    overflow = 0;
  }
  void add(std::int64_t start_ns, std::int64_t end_ns) noexcept;
  std::vector<std::int64_t> start;
  std::vector<std::int64_t> end;
  std::size_t count = 0;
  std::int64_t overflow = 0;
  std::uint64_t allocs_at_first = 0;  ///< allocations() when the first call began
};

/// Benchmark-side decorator around any Scheduler. kPassThrough forwards every
/// call unchanged (optionally logging the time of each allocate_into call);
/// kSlow additionally busy-waits after each decision for as long as the
/// decision took, doubling the scheduler's cost as the gateway sees it.
class TimedScheduler final : public jstream::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<jstream::Scheduler> inner, Inject mode, CallLog* log);

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void reset(std::size_t users) override { inner_->reset(users); }
  void reset_user(std::size_t user) override { inner_->reset_user(user); }
  [[nodiscard]] jstream::Allocation allocate(const jstream::SlotContext& ctx) override;
  void allocate_into(const jstream::SlotContext& ctx, jstream::Allocation& out) override;
  [[nodiscard]] std::span<const double> virtual_queues() const override {
    return inner_->virtual_queues();
  }
  [[nodiscard]] const jstream::SolveCertificate* solve_certificate() const override {
    return inner_->solve_certificate();
  }

 private:
  std::unique_ptr<jstream::Scheduler> inner_;
  Inject mode_;
  CallLog* log_;
};

/// Wraps `inner` when `mode` asks for a decorator (or a log is wanted).
[[nodiscard]] std::unique_ptr<jstream::Scheduler> maybe_decorate(
    std::unique_ptr<jstream::Scheduler> inner, Inject mode, CallLog* log);

/// Nearest-rank percentile (q in [0, 1]) of `values`; sorts a copy.
[[nodiscard]] double percentile(std::span<const double> values, double q);
[[nodiscard]] double median(std::span<const double> values);

/// Peak resident set size in MB; with `children`, the max of this process
/// and its reaped children (RUSAGE_CHILDREN).
[[nodiscard]] double peak_rss_mb(bool children);

/// Streaming FNV-1a digest over raw values (allocation and ABR digests).
class Fnv {
 public:
  void add(const void* data, std::size_t len) noexcept;
  void i64(std::int64_t v) noexcept { add(&v, sizeof v); }
  void f64(double v) noexcept { add(&v, sizeof v); }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

[[nodiscard]] std::string hex64(std::uint64_t v);

/// Outcome of one run: metrics (name, value, unit) in print order, the
/// attempted/failed operation counts, and the digests for the stamp.
struct RunResult {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool reference_ok = false;  ///< the default-seed reference unit matched its digest
  std::vector<std::pair<std::string, std::string>> digests;
  std::vector<std::pair<std::string, std::string>> notes;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void digest(const std::string& label, std::uint64_t value) {
    digests.emplace_back(label, hex64(value));
  }
  void note(const std::string& key, const std::string& value) {
    notes.emplace_back(key, value);
  }
};

/// Checks the default seed's unit against its recorded digest, once per run.
class ReferenceCheck {
 public:
  ReferenceCheck(RunResult& result, std::uint64_t expected)
      : result_(result), expected_(expected) {}
  /// Checks `digest` when `seed` is kDefaultSeed and no unit was checked yet.
  void offer(std::uint64_t seed, std::uint64_t digest);
  [[nodiscard]] bool done() const noexcept { return done_; }

 private:
  RunResult& result_;
  std::uint64_t expected_;
  bool done_ = false;
};

/// True while `deadline_ns` has not passed.
[[nodiscard]] inline bool before(std::int64_t deadline_ns) noexcept {
  return now_ns() < deadline_ns;
}

/// One execution of a workload unit (one seed) in an untraced run.
struct Sample {
  std::vector<double> op_us;  ///< host time of each op, in op order
  double setup_s = 0.0;
  double user_slots = 0.0;    ///< simulated population-slots the ops covered
  std::uint64_t digest = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

/// What the untraced measurement loop collected.
struct Measured {
  std::vector<double> op_us;    ///< per-op minimum over the repetitions
  std::vector<double> setup_s;  ///< per-seed minimum over the repetitions
  double user_slots = 0.0;
  double op_us_sum = 0.0;
  std::int64_t seeds = 0;
};

/// How many times the untraced loop runs each seed. On a shared host most
/// repetitions of a unit can be slowed by 1.1-1.8x, for stretches of tens of
/// ops or for the whole unit, so a tail percentile of the per-op minimum
/// settles only with many repetitions (C's p95 over eight 25 s runs in one
/// noisy stretch spread 0.47 as single runs, 0.27 as the minimum of five,
/// 0.04 as the minimum of ten).
inline constexpr int kRepeats = 10;

/// Untraced measurement loop shared by the workloads: kRepeats closed-loop
/// passes over the seeds seed, seed + stride, ... The first pass runs new
/// seeds while the next one would end nearer to options.seconds / kRepeats
/// than stopping would (a unit is predicted to last as long as the one
/// before), which fixes the run's seeds; each later pass runs the same seeds
/// again, and every op keeps the minimum of its repetitions. With `pin`,
/// each repetition runs pinned to one CPU, and a seed's repetitions rotate
/// over the CPUs. The work is deterministic, so the repetitions differ only
/// in interference from other tenants of a shared host, which slows a vCPU
/// by up to ~1.8x for stretches of up to seconds; the repetitions of a seed
/// lie a pass apart, so one stretch rarely covers them all, and the minimum
/// strips it. Repetitions must agree on the digest; the unit of kDefaultSeed
/// must match `reference_digest` (it is run once more at the end when the
/// run's seeds did not cover it).
Measured measure(const Options& options, RunResult& result, std::uint64_t stride, bool pin,
                 std::uint64_t reference_digest,
                 const std::function<Sample(std::uint64_t seed)>& run_unit);

/// Emits the five end-to-end metrics from a Measured loop; `tail_q` is the
/// workload's tail percentile: one with >= 10 samples beyond it, and not on
/// the edge of a sparse population of slow ops, where seed and host move it
/// most (see README.md).
void emit_end_to_end(RunResult& result, const Measured& measured, double tail_q,
                     bool rss_children);

/// One variant's pass over one seed in a traced run.
struct VariantRun {
  std::uint64_t digest = 0;
  double op_ns = 0.0;  ///< host time of the variant's measured ops
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

/// Runs one variant on `seed`; `first` is true for the run's first seed,
/// where the workload reads its exact per-seed counts.
using Variant = std::function<VariantRun(std::uint64_t seed, bool first)>;

/// Traced measurement loop shared by the workloads. A closed loop over seeds
/// (seed, seed + stride, ...) that runs every variant once per seed, in an
/// order rotating from seed to seed, so each variant sees the same work and
/// the same share of host interference. variants[0] is the unobserved
/// program; it must only return its VariantRun, because it also reruns the
/// default seed at the end when the loop did not cover it. Seeds start until
/// `options.seconds` have passed. All variants of a seed must agree on the
/// digest, and the unit of kDefaultSeed must match `reference_digest`. At
/// the end `spans` is written to `options.span_out` (when enabled). Returns
/// each variant's summed op_ns, in variant order.
std::vector<double> measure_traced(const Options& options, RunResult& result,
                                   std::uint64_t stride, std::uint64_t reference_digest,
                                   const std::vector<Variant>& variants,
                                   const SpanBuffer& spans);

/// The span buffer of a traced run: preallocated when spans are written out.
[[nodiscard]] inline std::size_t span_capacity(const Options& options) {
  return options.span_out.empty() ? 0 : 400000;
}

/// Per-layer counters read from the telemetry registry (exact, per unit).
struct RegistryCounts {
  std::vector<std::pair<std::string, std::int64_t>> values;
  /// Snapshot of the counters every workload reports.
  static RegistryCounts read();
  [[nodiscard]] std::int64_t get(const std::string& name) const;
};

/// Emits every per-layer metric of BENCHMARK.json, in its order: the traced
/// values the workload measured, and 0 for layers it does not exercise.
void emit_layer_metrics(RunResult& result,
                        const std::vector<std::pair<std::string, double>>& measured);

// Workloads.
RunResult run_ema_static(const Options& options);
RunResult run_campaign_baselines(const Options& options);
RunResult run_service_loaded(const Options& options);
RunResult run_abr_rtma(const Options& options);

}  // namespace perfbench
