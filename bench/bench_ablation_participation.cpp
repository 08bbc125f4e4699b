// Ablation — partial participation. The paper's protocol has every client
// in every round (synchronous, N = 2). Real fleets sample a fraction of
// clients per round (McMahan et al.); this bench measures what client
// sampling costs in convergence and buys in traffic on a 6-device fleet.
#include <cstdio>

#include "core/evaluate.hpp"
#include "fleet.hpp"
#include "sim/processor.hpp"
#include "sim/splash2.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace fedpower;

struct Outcome {
  double mean_reward = 0.0;
  double late_reward = 0.0;
  double violation = 0.0;
  double uplink_kb = 0.0;
};

Outcome run_with(double participation) {
  const std::size_t rounds = 80;
  core::ControllerConfig controller_config;
  sim::ProcessorConfig processor_config;
  const auto suite = sim::splash2_suite();
  std::vector<std::vector<sim::AppProfile>> apps;
  for (std::size_t d = 0; d < 6; ++d)
    apps.push_back({suite[2 * d], suite[2 * d + 1]});

  benchutil::Fleet fleet = benchutil::make_fleet(
      {controller_config}, processor_config, apps, /*seed=*/42);
  fed::InProcessTransport transport;
  fed::FederatedAveraging server(fleet.clients(), &transport);
  server.initialize(fleet.controller(0).local_parameters());
  if (participation < 1.0)
    server.set_sampling({.fraction = participation, .seed = 7});

  core::EvalConfig eval_config;
  eval_config.processor = processor_config;
  eval_config.episode_intervals = 30;
  const core::Evaluator evaluator(controller_config, eval_config);

  Outcome outcome;
  util::RunningStats all;
  util::RunningStats late;
  util::RunningStats violations;
  for (std::size_t round = 0; round < rounds; ++round) {
    server.run_round();
    const auto result = evaluator.run_episode(
        evaluator.neural_policy(server.global_model()),
        suite[round % suite.size()], 900 + round);
    all.add(result.mean_reward);
    violations.add(result.violation_rate);
    if (round + 20 >= rounds) late.add(result.mean_reward);
  }
  outcome.mean_reward = all.mean();
  outcome.late_reward = late.mean();
  outcome.violation = violations.mean();
  outcome.uplink_kb =
      static_cast<double>(transport.stats().uplink_bytes) / 1000.0;
  return outcome;
}

}  // namespace

int main() {
  std::printf("== Ablation: partial participation "
              "(6 devices, 2 apps each, 80 rounds) ==\n\n");
  util::AsciiTable out({"participation", "mean reward", "last-20 reward",
                        "violation rate", "uplink kB"});
  for (const double fraction : {1.0, 0.5, 1.0 / 3.0}) {
    const Outcome o = run_with(fraction);
    out.add_row(util::AsciiTable::format(fraction, 2),
                {o.mean_reward, o.late_reward, o.violation, o.uplink_kb});
  }
  std::printf("%s\n", out.to_string().c_str());
  std::printf("Sampling clients trades convergence speed for traffic; with\n"
              "enough rounds the sampled fleet catches up because every\n"
              "device's data still reaches the average regularly.\n");
  return 0;
}
