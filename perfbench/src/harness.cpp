#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "common/error.hpp"
#include "telemetry/registry.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* ptr = std::malloc(size == 0 ? 1 : size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t rounded = (size + align - 1) / align * align;
  void* ptr = std::aligned_alloc(align, rounded == 0 ? align : rounded);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept { std::free(ptr); }

namespace perfbench {

std::uint64_t allocations() noexcept { return g_allocs.load(std::memory_order_relaxed); }

// ---------------------------------------------------------------------------

SpanBuffer::SpanBuffer(std::size_t capacity) : spans_(capacity) {}

std::int64_t SpanBuffer::add(Name name, std::int64_t parent, std::int64_t start_ns,
                             std::int64_t end_ns) noexcept {
  if (spans_.empty()) return -1;
  if (used_ == spans_.size()) {
    ++dropped_;
    return -1;
  }
  spans_[used_] = {start_ns, end_ns, parent, name};
  return static_cast<std::int64_t>(used_++);
}

void SpanBuffer::close(std::int64_t index, std::int64_t end_ns) noexcept {
  if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ns = end_ns;
}

void SpanBuffer::write_chrome_json(const std::string& path) const {
  static constexpr const char* kNames[] = {"unit", "slot",     "solve", "trace_gen",
                                           "cell", "campaign", "codec"};
  std::FILE* out = std::fopen(path.c_str(), "w");
  jstream::require(out != nullptr, "cannot write span file " + path);
  const std::int64_t origin = used_ > 0 ? spans_[0].start_ns : 0;
  std::fprintf(out, "{\"displayTimeUnit\":\"ns\",\"dropped\":%lld,\"traceEvents\":[",
               static_cast<long long>(dropped_));
  for (std::size_t i = 0; i < used_; ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%lld}}",
                 i == 0 ? "" : ",", kNames[s.name],
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 static_cast<long long>(s.parent));
  }
  std::fprintf(out, "\n]}\n");
  std::fclose(out);
}

// ---------------------------------------------------------------------------

CallLog::CallLog(std::size_t capacity) : start(capacity), end(capacity) {}

void CallLog::add(std::int64_t start_ns, std::int64_t end_ns) noexcept {
  if (count == 0 && overflow == 0) allocs_at_first = allocations();
  if (count == start.size()) {
    ++overflow;
    return;
  }
  start[count] = start_ns;
  end[count] = end_ns;
  ++count;
}

TimedScheduler::TimedScheduler(std::unique_ptr<jstream::Scheduler> inner, Inject mode,
                               CallLog* log)
    : inner_(std::move(inner)), mode_(mode), log_(log) {}

jstream::Allocation TimedScheduler::allocate(const jstream::SlotContext& ctx) {
  jstream::Allocation out;
  allocate_into(ctx, out);
  return out;
}

void TimedScheduler::allocate_into(const jstream::SlotContext& ctx,
                                   jstream::Allocation& out) {
  const std::int64_t start = now_ns();
  inner_->allocate_into(ctx, out);
  std::int64_t end = now_ns();
  if (mode_ == Inject::kSlow) {
    const std::int64_t until = end + (end - start);
    while ((end = now_ns()) < until) {
    }
  }
  if (log_ != nullptr) log_->add(start, end);
}

std::unique_ptr<jstream::Scheduler> maybe_decorate(
    std::unique_ptr<jstream::Scheduler> inner, Inject mode, CallLog* log) {
  if (mode == Inject::kNone && log == nullptr) return inner;
  return std::make_unique<TimedScheduler>(std::move(inner), mode, log);
}

// ---------------------------------------------------------------------------

double percentile(std::span<const double> values, double q) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::clamp(q * static_cast<double>(sorted.size()), 1.0,
                 static_cast<double>(sorted.size())) +
      0.999999);
  const std::size_t index = std::min(rank, sorted.size()) - 1;
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(index),
                   sorted.end());
  return sorted[index];
}

double median(std::span<const double> values) { return percentile(values, 0.5); }

double peak_rss_mb(bool children) {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  long kb = self.ru_maxrss;
  if (children) {
    rusage kids{};
    getrusage(RUSAGE_CHILDREN, &kids);
    kb = std::max(kb, kids.ru_maxrss);
  }
  return static_cast<double>(kb) / 1024.0;
}

void Fnv::add(const void* data, std::size_t len) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h_ ^= bytes[i];
    h_ *= 0x100000001b3ULL;
  }
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void ReferenceCheck::offer(std::uint64_t seed, std::uint64_t digest) {
  if (seed != kDefaultSeed || done_) return;
  done_ = true;
  result_.digest("reference_unit", digest);
  ++result_.attempted;
  result_.reference_ok = digest == expected_;
  if (!result_.reference_ok) {
    ++result_.failed;
    result_.note("reference_mismatch", "expected " + hex64(expected_));
  }
}

// ---------------------------------------------------------------------------

namespace {

/// CPUs this process may run on, in id order.
std::vector<std::size_t> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<std::size_t> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (std::size_t cpu = 0; cpu < static_cast<std::size_t>(CPU_SETSIZE); ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

void set_affinity(const std::vector<std::size_t>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const std::size_t cpu : cpus) CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

}  // namespace

Measured measure(const Options& options, RunResult& result, std::uint64_t stride, bool pin,
                 std::uint64_t reference_digest,
                 const std::function<Sample(std::uint64_t seed)>& run_unit) {
  const std::int64_t first_pass_end =
      now_ns() + static_cast<std::int64_t>(options.seconds / kRepeats * 1e9);
  const std::vector<std::size_t> cpus = allowed_cpus();
  pin = pin && cpus.size() > 1;
  std::vector<Sample> best;
  std::int64_t unit_ns = 0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    // The first pass decides how many seeds the run covers.
    for (std::size_t j = 0;
         rep == 0 ? j == 0 || now_ns() + unit_ns / 2 < first_pass_end : j < best.size(); ++j) {
      const std::uint64_t seed = options.seed + stride * j;
      // The repetitions of one seed rotate over the CPUs.
      if (pin) set_affinity({cpus[(j + static_cast<std::size_t>(rep)) % cpus.size()]});
      const std::int64_t unit_start = now_ns();
      Sample sample = run_unit(seed);
      unit_ns = now_ns() - unit_start;
      result.attempted += sample.attempted;
      result.failed += sample.failed;
      if (rep == 0) {
        best.push_back(std::move(sample));
        continue;
      }
      // Deterministic work: every repetition must reproduce the first.
      Sample& keep = best[j];
      if (sample.digest != keep.digest || sample.op_us.size() != keep.op_us.size()) {
        ++result.failed;
        continue;
      }
      keep.setup_s = std::min(keep.setup_s, sample.setup_s);
      for (std::size_t i = 0; i < keep.op_us.size(); ++i) {
        keep.op_us[i] = std::min(keep.op_us[i], sample.op_us[i]);
      }
    }
  }
  if (pin) set_affinity(cpus);

  Measured measured;
  ReferenceCheck reference(result, reference_digest);
  result.digest("first_unit", best.front().digest);
  for (std::size_t j = 0; j < best.size(); ++j) {
    const Sample& keep = best[j];
    reference.offer(options.seed + stride * j, keep.digest);
    measured.op_us.insert(measured.op_us.end(), keep.op_us.begin(), keep.op_us.end());
    for (const double t : keep.op_us) measured.op_us_sum += t;
    measured.setup_s.push_back(keep.setup_s);
    measured.user_slots += keep.user_slots;
    ++measured.seeds;
  }
  if (!reference.done()) {
    const Sample sample = run_unit(kDefaultSeed);
    result.attempted += sample.attempted;
    result.failed += sample.failed;
    reference.offer(kDefaultSeed, sample.digest);
  }
  return measured;
}

void emit_end_to_end(RunResult& result, const Measured& measured, double tail_q,
                     bool rss_children) {
  result.metric("setup_s", median(measured.setup_s), "s");
  result.metric("op_p50_us", percentile(measured.op_us, 0.5), "us");
  result.metric("op_tail_us", percentile(measured.op_us, tail_q), "us");
  result.metric("user_slots_per_s", measured.user_slots / (measured.op_us_sum / 1e6), "1/s");
  result.metric("peak_rss_mb", peak_rss_mb(rss_children), "MB");
  char tail[32];
  std::snprintf(tail, sizeof tail, "p%g", tail_q * 100.0);
  result.note("tail_percentile", tail);
  result.note("samples", std::to_string(measured.op_us.size()));
  char spread[160];
  std::snprintf(spread, sizeof spread, "p90 %.1f p95 %.1f p99 %.1f p99.9 %.1f",
                percentile(measured.op_us, 0.9), percentile(measured.op_us, 0.95),
                percentile(measured.op_us, 0.99), percentile(measured.op_us, 0.999));
  result.note("op_percentiles_us", spread);
  result.note("seeds", std::to_string(measured.seeds));
  result.note("repeats", std::to_string(kRepeats));
}

std::vector<double> measure_traced(const Options& options, RunResult& result,
                                   std::uint64_t stride, std::uint64_t reference_digest,
                                   const std::vector<Variant>& variants,
                                   const SpanBuffer& spans) {
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  ReferenceCheck reference(result, reference_digest);
  std::vector<double> op_ns(variants.size(), 0.0);
  std::vector<std::uint64_t> digests(variants.size(), 0);
  for (std::uint64_t k = 0; k == 0 || before(deadline); ++k) {
    const std::uint64_t seed = options.seed + stride * k;
    for (std::size_t v = 0; v < variants.size(); ++v) {
      const std::size_t variant = (v + k) % variants.size();
      const VariantRun run = variants[variant](seed, k == 0);
      op_ns[variant] += run.op_ns;
      digests[variant] = run.digest;
      result.attempted += run.attempted;
      result.failed += run.failed;
    }
    // No observation may change what the program computes.
    for (const std::uint64_t digest : digests) {
      if (digest != digests[0]) ++result.failed;
    }
    if (k == 0) result.digest("first_unit", digests[0]);
    reference.offer(seed, digests[0]);
  }
  if (!reference.done()) {
    const VariantRun run = variants[0](kDefaultSeed, false);
    result.attempted += run.attempted;
    result.failed += run.failed;
    reference.offer(kDefaultSeed, run.digest);
  }
  result.note("spans_dropped", std::to_string(spans.dropped()));
  if (spans.enabled()) spans.write_chrome_json(options.span_out);
  return op_ns;
}

// ---------------------------------------------------------------------------

namespace {

constexpr const char* kCounterNames[] = {
    "admission.offered",           "admission.accepted",
    "admission.blocked",           "fault.outage_user_slots",
    "fault.stale_user_slots",      "fault.stale_clipped_units",
    "fault.departures",            "fault.capacity_degraded_slots",
    "constraint.eq1.link_cap_clips", "constraint.eq2.capacity_clips",
};

struct LayerMetric {
  const char* name;
  const char* unit;
};

constexpr LayerMetric kLayerMetrics[] = {
    {"core.solve_us.p50", "us"},
    {"core.solve_us.p99", "us"},
    {"core.solve_us.p999", "us"},
    {"core.solve_share", "frac"},
    {"core.dp_solves", "count"},
    {"core.separable_hits", "count"},
    {"gateway.self_us.p50", "us"},
    {"session.step_self_us.p50", "us"},
    {"session.offered", "count"},
    {"session.admitted", "count"},
    {"session.blocked", "count"},
    {"session.admit_ratio", "frac"},
    {"fault.outage_user_slots", "count"},
    {"fault.stale_user_slots", "count"},
    {"fault.stale_clipped_units", "count"},
    {"fault.departures", "count"},
    {"fault.capacity_degraded_slots", "count"},
    {"constraint.eq1.link_cap_clips", "count"},
    {"constraint.eq2.capacity_clips", "count"},
    {"radio.trace_gen_ms", "ms"},
    {"sim.cell_ms.p50", "ms"},
    {"trace_cache.generations", "count"},
    {"trace_cache.hits", "count"},
    {"distrib.frame_bytes", "bytes"},
    {"distrib.encode_decode_ms", "ms"},
    {"abr.slot_us.p50", "us"},
    {"abr.slot_us.p99", "us"},
    {"allocs_per_slot", "count"},
    {"trace.overhead_frac", "frac"},
    {"telemetry.overhead_frac", "frac"},
};

}  // namespace

RegistryCounts RegistryCounts::read() {
  auto& registry = jstream::telemetry::global_registry();
  RegistryCounts counts;
  for (const char* name : kCounterNames) {
    counts.values.emplace_back(name, registry.counter(name).value());
  }
  return counts;
}

std::int64_t RegistryCounts::get(const std::string& name) const {
  for (const auto& [key, value] : values) {
    if (key == name) return value;
  }
  return 0;
}

void emit_layer_metrics(RunResult& result,
                        const std::vector<std::pair<std::string, double>>& measured) {
  for (const LayerMetric& m : kLayerMetrics) {
    double value = 0.0;
    for (const auto& [name, v] : measured) {
      if (name == m.name) value = v;
    }
    result.metric(m.name, value, m.unit);
  }
  for (const auto& [name, v] : measured) {
    const bool known = std::any_of(std::begin(kLayerMetrics), std::end(kLayerMetrics),
                                   [&](const LayerMetric& m) { return name == m.name; });
    jstream::require(known, "unlisted per-layer metric " + name);
  }
}

}  // namespace perfbench
