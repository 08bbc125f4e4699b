#include "sim/processor.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ckpt/binary_io.hpp"
#include "sim/splash2.hpp"

namespace fedpower::sim {
namespace {

ProcessorConfig quiet_config() {
  ProcessorConfig config;
  config.sensor_noise_w = 0.0;
  config.workload_jitter = 0.0;
  config.dvfs_transition_us = 0.0;
  return config;
}

TEST(Processor, IdleWithoutWorkload) {
  Processor proc(quiet_config(), util::Rng{1});
  proc.set_level(0);
  const TelemetrySample sample = proc.run_interval(0.5);
  EXPECT_EQ(sample.app_name, "<idle>");
  EXPECT_LT(sample.true_power_w, 0.2);
  EXPECT_GT(sample.instructions, 0.0);
}

TEST(Processor, TimeAdvancesByInterval) {
  Processor proc(quiet_config(), util::Rng{2});
  EXPECT_DOUBLE_EQ(proc.time_s(), 0.0);
  proc.run_interval(0.5);
  proc.run_interval(0.25);
  EXPECT_DOUBLE_EQ(proc.time_s(), 0.75);
}

TEST(Processor, TelemetryReflectsSelectedLevel) {
  Processor proc(quiet_config(), util::Rng{3});
  SingleAppWorkload workload(*splash2_app("fft"));
  proc.set_workload(&workload);
  proc.set_level(7);
  const TelemetrySample sample = proc.run_interval(0.5);
  EXPECT_EQ(sample.level, 7u);
  EXPECT_DOUBLE_EQ(sample.freq_mhz, 825.6);
  EXPECT_NEAR(sample.voltage_v, 0.958, 0.01);
}

TEST(Processor, PowerIncreasesWithFrequency) {
  SingleAppWorkload workload(*splash2_app("lu"));
  Processor proc(quiet_config(), util::Rng{4});
  proc.set_workload(&workload);
  proc.set_level(0);
  const double p_low = proc.run_interval(0.5).true_power_w;
  proc.set_level(14);
  const double p_high = proc.run_interval(0.5).true_power_w;
  EXPECT_GT(p_high, 2.0 * p_low);
}

TEST(Processor, ComputeAppViolatesBudgetAtMaxFreq) {
  SingleAppWorkload workload(*splash2_app("water-ns"));
  Processor proc(quiet_config(), util::Rng{5});
  proc.set_workload(&workload);
  proc.set_level(14);
  EXPECT_GT(proc.run_interval(0.5).true_power_w, 0.9);
}

TEST(Processor, MemoryAppStaysUnderBudgetAtMaxFreq) {
  SingleAppWorkload workload(*splash2_app("radix"));
  Processor proc(quiet_config(), util::Rng{6});
  proc.set_workload(&workload);
  proc.set_level(14);
  EXPECT_LT(proc.run_interval(0.5).true_power_w, 0.6);
}

TEST(Processor, CountersAreConsistent) {
  SingleAppWorkload workload(*splash2_app("barnes"));
  Processor proc(quiet_config(), util::Rng{7});
  proc.set_workload(&workload);
  proc.set_level(10);
  const TelemetrySample s = proc.run_interval(0.5);
  EXPECT_NEAR(s.ipc, s.instructions / s.cycles, 1e-12);
  EXPECT_NEAR(s.ips, s.instructions / 0.5, 1e-6);
  EXPECT_GT(s.miss_rate, 0.0);
  EXPECT_LT(s.miss_rate, 1.0);
  EXPECT_GT(s.mpki, 0.0);
  EXPECT_NEAR(s.energy_j, s.true_power_w * 0.5, 1e-9);
}

TEST(Processor, AppRunsToCompletionAndIsRecorded) {
  AppProfile tiny = splash2_app("fft")->scaled(0.001);  // ~25 ms of work
  SingleAppWorkload workload(tiny);
  Processor proc(quiet_config(), util::Rng{8});
  proc.set_workload(&workload);
  proc.set_level(14);
  proc.run_interval(0.5);
  ASSERT_FALSE(proc.completed_runs().empty());
  const AppExecution& done = proc.completed_runs().front();
  EXPECT_EQ(done.name, "fft");
  EXPECT_GT(done.exec_time_s, 0.0);
  EXPECT_LT(done.exec_time_s, 0.5);
  EXPECT_NEAR(done.instructions, tiny.total_instructions(),
              tiny.total_instructions() * 1e-6);
  EXPECT_NEAR(done.avg_ips, done.instructions / done.exec_time_s, 1.0);
}

TEST(Processor, BackToBackAppsWithinOneInterval) {
  AppProfile tiny = splash2_app("lu")->scaled(0.0005);
  SingleAppWorkload workload(tiny);
  Processor proc(quiet_config(), util::Rng{9});
  proc.set_workload(&workload);
  proc.set_level(14);
  proc.run_interval(0.5);
  // Several instances of the tiny app must have completed.
  EXPECT_GT(proc.completed_runs().size(), 3u);
}

TEST(Processor, ExecTimeMatchesAnalyticPrediction) {
  // Single-phase app, no jitter: exec time = instructions / ips(f).
  AppProfile app{"single", {PhaseProfile{1.0, 0.0, 0.0, 0.5, 5e8}}};
  SingleAppWorkload workload(app);
  Processor proc(quiet_config(), util::Rng{10});
  proc.set_workload(&workload);
  proc.set_level(9);  // 1036.8 MHz -> ips = 1.0368e9, t = 0.482 s
  proc.run_interval(0.5);
  ASSERT_FALSE(proc.completed_runs().empty());
  EXPECT_NEAR(proc.completed_runs().front().exec_time_s, 5e8 / 1.0368e9,
              1e-6);
}

TEST(Processor, ClearCompletedRuns) {
  AppProfile tiny = splash2_app("fft")->scaled(0.001);
  SingleAppWorkload workload(tiny);
  Processor proc(quiet_config(), util::Rng{11});
  proc.set_workload(&workload);
  proc.set_level(14);
  proc.run_interval(0.5);
  EXPECT_FALSE(proc.completed_runs().empty());
  proc.clear_completed_runs();
  EXPECT_TRUE(proc.completed_runs().empty());
}

TEST(Processor, SensorNoiseAffectsMeasuredNotTruePower) {
  ProcessorConfig config = quiet_config();
  config.sensor_noise_w = 0.05;
  SingleAppWorkload workload(*splash2_app("fft"));
  Processor proc(config, util::Rng{12});
  proc.set_workload(&workload);
  proc.set_level(7);
  double max_dev = 0.0;
  for (int i = 0; i < 50; ++i) {
    const TelemetrySample s = proc.run_interval(0.1);
    max_dev = std::max(max_dev, std::abs(s.power_w - s.true_power_w));
  }
  EXPECT_GT(max_dev, 0.01);   // noise present
  EXPECT_LT(max_dev, 0.5);    // but bounded
}

TEST(Processor, MeasuredPowerNeverNegative) {
  ProcessorConfig config = quiet_config();
  config.sensor_noise_w = 0.5;  // absurd noise to hit the clamp
  Processor proc(config, util::Rng{13});
  proc.set_level(0);
  for (int i = 0; i < 100; ++i)
    EXPECT_GE(proc.run_interval(0.1).power_w, 0.0);
}

TEST(Processor, WorkloadJitterPerturbsCounters) {
  ProcessorConfig config = quiet_config();
  config.workload_jitter = 0.05;
  SingleAppWorkload workload(*splash2_app("ocean"));
  Processor proc(config, util::Rng{14});
  proc.set_workload(&workload);
  proc.set_level(7);
  std::vector<double> miss_rates;
  for (int i = 0; i < 20; ++i)
    miss_rates.push_back(proc.run_interval(0.1).miss_rate);
  double lo = miss_rates[0];
  double hi = miss_rates[0];
  for (const double m : miss_rates) {
    lo = std::min(lo, m);
    hi = std::max(hi, m);
  }
  EXPECT_GT(hi - lo, 1e-4);
}

TEST(Processor, DvfsTransitionCostsTime) {
  ProcessorConfig with_cost = quiet_config();
  with_cost.dvfs_transition_us = 1000.0;  // exaggerated 1 ms
  SingleAppWorkload w1(*splash2_app("lu"));
  SingleAppWorkload w2(*splash2_app("lu"));
  Processor switching(with_cost, util::Rng{15});
  Processor steady(with_cost, util::Rng{15});
  switching.set_workload(&w1);
  steady.set_workload(&w2);
  steady.set_level(10);
  double instr_switching = 0.0;
  double instr_steady = 0.0;
  for (int i = 0; i < 20; ++i) {
    switching.set_level(i % 2 == 0 ? 10 : 9);
    instr_switching += switching.run_interval(0.1).instructions;
    steady.set_level(10);
    instr_steady += steady.run_interval(0.1).instructions;
  }
  EXPECT_LT(instr_switching, instr_steady);
}

TEST(Processor, ThermalModelHeatsUpUnderLoad) {
  ProcessorConfig config = quiet_config();
  config.enable_thermal = true;
  SingleAppWorkload workload(*splash2_app("water-ns"));
  Processor proc(config, util::Rng{16});
  proc.set_workload(&workload);
  proc.set_level(14);
  const double t0 = proc.temperature_c();
  for (int i = 0; i < 100; ++i) proc.run_interval(0.5);
  EXPECT_GT(proc.temperature_c(), t0 + 5.0);
}

TEST(Processor, ThermalLeakageRaisesPower) {
  ProcessorConfig hot = quiet_config();
  hot.enable_thermal = true;
  ProcessorConfig cold = quiet_config();
  SingleAppWorkload w1(*splash2_app("water-ns"));
  SingleAppWorkload w2(*splash2_app("water-ns"));
  Processor proc_hot(hot, util::Rng{17});
  Processor proc_cold(cold, util::Rng{17});
  proc_hot.set_workload(&w1);
  proc_cold.set_workload(&w2);
  proc_hot.set_level(14);
  proc_cold.set_level(14);
  double p_hot = 0.0;
  double p_cold = 0.0;
  for (int i = 0; i < 200; ++i) {
    p_hot = proc_hot.run_interval(0.5).true_power_w;
    p_cold = proc_cold.run_interval(0.5).true_power_w;
  }
  EXPECT_GT(p_hot, p_cold);
}

TEST(Processor, ResetAppDropsInFlightRun) {
  SingleAppWorkload workload(*splash2_app("fft"));
  Processor proc(quiet_config(), util::Rng{18});
  proc.set_workload(&workload);
  proc.set_level(7);
  proc.run_interval(0.5);
  EXPECT_EQ(proc.current_app_name(), "fft");
  proc.reset_app();
  EXPECT_EQ(proc.current_app_name(), "<idle>");
}

TEST(Processor, DeterministicGivenSeed) {
  for (int repeat = 0; repeat < 2; ++repeat) {
    ProcessorConfig config;  // noise + jitter enabled
    SingleAppWorkload workload(*splash2_app("cholesky"));
    Processor a(config, util::Rng{99});
    Processor b(config, util::Rng{99});
    SingleAppWorkload wb(*splash2_app("cholesky"));
    a.set_workload(&workload);
    b.set_workload(&wb);
    a.set_level(8);
    b.set_level(8);
    for (int i = 0; i < 10; ++i) {
      const TelemetrySample sa = a.run_interval(0.5);
      const TelemetrySample sb = b.run_interval(0.5);
      EXPECT_DOUBLE_EQ(sa.power_w, sb.power_w);
      EXPECT_DOUBLE_EQ(sa.instructions, sb.instructions);
    }
  }
}

std::vector<std::uint8_t> processor_state(const Processor& proc) {
  ckpt::Writer out;
  proc.save_state(out);
  return out.take();
}

TEST(Processor, ResetMatchesAFreshProcessor) {
  // A processor that ran with faults, contention and short apps (so runs
  // completed and one is in flight) and is then reset must equal one
  // constructed with the reset's rng: in its state bytes, and as it runs.
  for (const bool thermal : {false, true}) {
    SCOPED_TRACE(thermal ? "thermal" : "no thermal");
    ProcessorConfig config;
    config.enable_thermal = thermal;
    HardwareFaultConfig faults;
    faults.frozen_counters = true;
    faults.stuck_power_sensor = true;
    faults.stuck_power_w = 0.7;
    SingleAppWorkload short_app(splash2_suite()[1].scaled(0.01));
    Processor used(config, util::Rng{3});
    used.set_workload(&short_app);
    used.inject_faults(faults);
    used.set_memory_latency_scale(1.5);
    for (std::size_t i = 0; i < 20; ++i) {
      used.set_level(i % 15);
      used.run_interval(0.5);
    }
    ASSERT_FALSE(used.completed_runs().empty());

    used.reset(util::Rng{9});
    Processor fresh(config, util::Rng{9});
    fresh.set_workload(&short_app);
    EXPECT_EQ(processor_state(used), processor_state(fresh));
    EXPECT_FALSE(used.faults().any());
    for (Processor* proc : {&used, &fresh}) proc->inject_faults(faults);
    for (std::size_t i = 0; i < 12; ++i) {
      for (Processor* proc : {&used, &fresh}) {
        proc->set_level((3 * i) % 15);
        proc->run_interval(0.5);
      }
    }
    EXPECT_EQ(processor_state(used), processor_state(fresh));
  }
}

TEST(ProcessorDeathTest, RejectsOutOfRangeLevel) {
  Processor proc(quiet_config(), util::Rng{20});
  EXPECT_DEATH(proc.set_level(15), "precondition");
}

TEST(ProcessorDeathTest, RejectsNonPositiveInterval) {
  Processor proc(quiet_config(), util::Rng{21});
  EXPECT_DEATH(proc.run_interval(0.0), "precondition");
}

}  // namespace
}  // namespace fedpower::sim
