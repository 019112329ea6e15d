#include "abr/abr_simulator.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/simulator.hpp"

namespace jstream {

double AbrRunMetrics::mean_quality_kbps() const {
  if (per_user.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& user : per_user) {
    sum += user.qoe.mean_quality_kbps(user.duration_s);
  }
  return sum / as_double(per_user.size());
}

double AbrRunMetrics::mean_rebuffer_s() const {
  if (per_user.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& user : per_user) sum += user.qoe.rebuffer_s;
  return sum / as_double(per_user.size());
}

double AbrRunMetrics::mean_switches() const {
  if (per_user.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& user : per_user) {
    sum += as_double(user.qoe.switches);
  }
  return sum / as_double(per_user.size());
}

double AbrRunMetrics::mean_qoe_score() const {
  if (per_user.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& user : per_user) sum += user.qoe.score(user.duration_s);
  return sum / as_double(per_user.size());
}

double AbrRunMetrics::total_energy_mj() const {
  double sum = 0.0;
  for (const auto& user : per_user) sum += user.trans_mj + user.tail_mj;
  return sum;
}

double AbrRunMetrics::completion_rate() const {
  if (per_user.empty()) return 0.0;
  const auto done =
      std::count_if(per_user.begin(), per_user.end(),
                    [](const AbrUserResult& u) { return u.playback_finished; });
  return as_double(done) / as_double(per_user.size());
}

AbrRunMetrics simulate_abr(const AbrScenarioConfig& config,
                           std::unique_ptr<Scheduler> scheduler) {
  require(config.duration_min_s > 0.0 &&
              config.duration_min_s <= config.duration_max_s,
          "content duration range is invalid");
  const QualityLadder ladder(config.ladder_kbps);
  const ScenarioConfig& base = config.base;
  Simulator simulator(base, std::move(scheduler));

  // Population: the scenario's endpoints (channel, radio, arrival slot), each
  // with a segmented client in place of its CBR session. Durations come from
  // their own split streams, so the channel is the CBR scenario's.
  std::vector<UserEndpoint> endpoints = build_endpoints(base);
  // jstream-lint: allow(rng-discipline) -- ABR scenario root stream,
  // mirroring build_endpoints' seeding so both builders stay comparable.
  const Rng scenario_rng(base.seed);
  std::vector<AbrClient> clients;
  clients.reserve(base.users);  // endpoints point into it: no reallocation
  for (std::size_t i = 0; i < base.users; ++i) {
    Rng user_rng = scenario_rng.split(i ^ 0xabc0ULL);
    const double duration =
        user_rng.uniform(config.duration_min_s, config.duration_max_s);
    clients.emplace_back(duration, config.segment_s, ladder,
                         make_quality_selector(config.selector), base.slot.tau_s,
                         config.throughput_ewma_alpha);
    clients.back().attach(endpoints[i]);
  }

  const RunMetrics run = simulator.run(endpoints, /*keep_series=*/false);

  AbrRunMetrics metrics;
  metrics.slots_run = run.slots_run;
  metrics.per_user.resize(base.users);
  for (std::size_t i = 0; i < base.users; ++i) {
    AbrUserResult& out = metrics.per_user[i];
    out.qoe = clients[i].qoe();
    out.qoe.rebuffer_s = run.per_user[i].rebuffer_s;
    out.duration_s = clients[i].duration_s();
    out.trans_mj = run.per_user[i].trans_mj;
    out.tail_mj = run.per_user[i].tail_mj;
    // Read from the buffer, not RunMetrics: a playback that ends in the last
    // slot finishes after that slot's snapshot was recorded.
    out.playback_finished = endpoints[i].buffer.playback_finished();
  }
  return metrics;
}

}  // namespace jstream
