// jstream_perfbench: runs one benchmark workload under one seed and prints
// a run stamp, a human-readable metric table, and — as the last line — the
// result object {"correct", "attempted", "failed", "metrics"}.
//
//   jstream_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     [--inject none|pass|slow] [--spans <path>] [--commit <id>]
//
// See perfbench/README.md for the workloads and metrics.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include <unistd.h>

#include "harness.hpp"

namespace {

using perfbench::Options;
using perfbench::RunResult;

struct Workload {
  const char* name;
  RunResult (*run)(const Options&);
};

constexpr Workload kWorkloads[] = {
    {"ema-static-n1000", perfbench::run_ema_static},
    {"campaign-baselines-n200", perfbench::run_campaign_baselines},
    {"ema-service-loaded", perfbench::run_service_loaded},
    {"abr-rtma-n1000", perfbench::run_abr_rtma},
};

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "jstream_perfbench: %s\nusage: jstream_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--inject none|pass|slow] [--spans <path>] "
               "[--commit <id>]\n",
               message);
  std::exit(2);
}

void print_result(const Options& options, const std::string& commit, const RunResult& r,
                  bool correct) {
  std::printf("stamp {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
              "\"inject\":%d,\"nproc\":%ld,\"hardware_concurrency\":%u,\"cpu\":\"%s\","
              "\"compiler\":\"%s\",\"build_type\":\"%s\",\"commit\":\"%s\",\"digests\":{",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0, static_cast<int>(options.inject),
              sysconf(_SC_NPROCESSORS_ONLN), std::thread::hardware_concurrency(),
              json_escape(cpu_model()).c_str(), json_escape(__VERSION__).c_str(),
              PERFBENCH_BUILD_TYPE, json_escape(commit).c_str());
  for (std::size_t i = 0; i < r.digests.size(); ++i) {
    std::printf("%s\"%s\":\"%s\"", i == 0 ? "" : ",", r.digests[i].first.c_str(),
                r.digests[i].second.c_str());
  }
  std::printf("},\"notes\":{");
  for (std::size_t i = 0; i < r.notes.size(); ++i) {
    std::printf("%s\"%s\":\"%s\"", i == 0 ? "" : ",", r.notes[i].first.c_str(),
                json_escape(r.notes[i].second).c_str());
  }
  std::printf("}}\n");
  for (const RunResult::Metric& m : r.metrics) {
    std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                r.metrics[i].name.c_str(), r.metrics[i].value, r.metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--inject") {
      if (value == "none") {
        options.inject = perfbench::Inject::kNone;
      } else if (value == "pass") {
        options.inject = perfbench::Inject::kPassThrough;
      } else if (value == "slow") {
        options.inject = perfbench::Inject::kSlow;
      } else {
        usage("--inject takes none, pass or slow");
      }
    } else if (arg == "--spans") {
      options.span_out = value;
    } else if (arg == "--commit") {
      commit = value;
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  if (options.inject != perfbench::Inject::kNone &&
      (options.workload != "ema-static-n1000" || options.trace)) {
    usage("--inject is only for the untraced ema-static-n1000 self-check");
  }

  for (const auto& workload : kWorkloads) {
    if (options.workload != workload.name) continue;
    try {
      const RunResult result = workload.run(options);
      const bool correct = result.failed == 0 && result.reference_ok && result.attempted > 0;
      print_result(options, commit, result, correct);
      return correct ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "jstream_perfbench: %s failed: %s\n", workload.name, e.what());
      return 1;
    }
  }
  usage(("unknown workload " + options.workload).c_str());
}
