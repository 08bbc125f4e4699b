// The simulated edge processor: executes a workload of phased applications
// at a selectable V/f operating point and produces per-interval telemetry
// (performance counters and a noisy power reading) — the environment the
// RL power controllers interact with.
//
// Execution inside a control interval is computed in closed form from the
// phase parameters (DESIGN.md §5.2): the interval is split at phase and
// application boundaries; within each segment, instruction throughput and
// power are constant, so time, energy and counter increments follow
// analytically. A 100-round federated experiment therefore simulates in
// milliseconds.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/binary_io.hpp"
#include "sim/device.hpp"
#include "sim/perf_model.hpp"
#include "sim/power_model.hpp"
#include "sim/telemetry.hpp"
#include "sim/thermal.hpp"
#include "sim/vf_table.hpp"
#include "sim/workload.hpp"
#include "util/rng.hpp"

namespace fedpower::sim {

struct ProcessorConfig {
  VfTable vf_table = VfTable::jetson_nano();
  PerfModelParams perf{};
  PowerModelParams power{};
  /// Standard deviation of the power sensor's additive Gaussian noise [W].
  double sensor_noise_w = 0.008;
  /// Relative per-interval jitter on phase miss rate and activity; models
  /// input-dependent behaviour of real applications.
  double workload_jitter = 0.04;
  /// Time lost per V/f transition [us]; modern PMICs switch in microseconds
  /// (paper §I footnote 1), so the default is a realistic small value.
  double dvfs_transition_us = 50.0;
  /// Enables the RC thermal model and temperature-dependent leakage.
  bool enable_thermal = false;
  ThermalParams thermal{};
};

/// Hardware-level faults a degraded device can exhibit (DESIGN.md §10).
/// All faults corrupt only what the controller observes or commands; the
/// underlying execution (and the RNG draw sequence) is untouched, so a
/// faulted run remains deterministic and checkpointable.
struct HardwareFaultConfig {
  /// Power sensor sticks at a constant reading. power_w reports
  /// stuck_power_w; true_power_w stays honest (energy accounting and the
  /// thermal model keep working — only the controller is deceived).
  bool stuck_power_sensor = false;
  double stuck_power_w = 0.0;
  /// Performance counters freeze: every sample repeats the counter block
  /// (instructions, cycles, ipc, miss rate, mpki, ips) captured on the
  /// first faulted interval.
  bool frozen_counters = false;
  /// DVFS actuator failure: set_level() validates and silently ignores the
  /// request; the core stays at its current operating point.
  bool dvfs_stuck = false;

  bool any() const noexcept {
    return stuck_power_sensor || frozen_counters || dvfs_stuck;
  }
};

class Processor final : public CpuDevice {
 public:
  Processor(ProcessorConfig config, util::Rng rng);

  /// Returns the processor to the state the constructor leaves with this
  /// rng: ambient die, no application in flight, empty completed-run log
  /// (its storage kept), level 0, clock 0 and no faults. The config and the
  /// attached workload stay. The constructor ends with it.
  void reset(util::Rng rng);

  /// Sets the workload supplying applications. The processor pulls the first
  /// application lazily on the next run_interval(). Pointer is non-owning
  /// and must outlive the processor's use.
  void set_workload(Workload* workload);

  /// Selects the V/f level for subsequent execution.
  void set_level(std::size_t level) override;
  std::size_t level() const noexcept override { return level_; }

  /// Advances simulated time by dt seconds, executing the workload at the
  /// current operating point, and returns aggregated telemetry.
  TelemetrySample run_interval(double dt_s) override;

  /// Application executions completed so far (since the last clear).
  const std::vector<AppExecution>& completed_runs() const noexcept {
    return completed_;
  }
  void clear_completed_runs() noexcept { completed_.clear(); }

  /// Abandons the in-flight application; the next interval pulls a fresh
  /// one from the workload. Used between evaluation episodes.
  void reset_app();

  /// Scales the effective DRAM latency seen by this core (>= 1). Set by
  /// MulticoreProcessor to model shared-memory contention; 1 = uncontended.
  void set_memory_latency_scale(double scale);
  double memory_latency_scale() const noexcept { return mem_latency_scale_; }

  double time_s() const noexcept { return time_s_; }
  const VfTable& vf_table() const noexcept override {
    return config_.vf_table;
  }
  const ProcessorConfig& config() const noexcept { return config_; }
  const std::string& current_app_name() const noexcept;

  /// Die temperature (ambient when the thermal model is disabled).
  double temperature_c() const noexcept;

  /// Arms (or replaces) this device's hardware faults. Faults apply from
  /// the next run_interval()/set_level() on.
  void inject_faults(const HardwareFaultConfig& faults);
  const HardwareFaultConfig& faults() const noexcept { return faults_; }

  /// Serializes all mutable execution state: RNG, die temperature, the
  /// in-flight application run (its profile is stored verbatim — resumed
  /// execution continues the exact same jittered phases), completed-run
  /// log, V/f level, clock and per-interval jitters. The workload pointer
  /// is not saved; re-attach the same workload before resuming.
  void save_state(ckpt::Writer& out) const;
  void restore_state(ckpt::Reader& in);

 private:
  struct AppRun {
    AppProfile app;
    std::size_t phase_index = 0;
    double phase_instructions_done = 0.0;
    double start_time_s = 0.0;
    double instructions = 0.0;
    double energy_j = 0.0;
  };

  /// Counter block captured when frozen_counters first fires.
  struct FrozenCounters {
    double instructions = 0.0;
    double cycles = 0.0;
    double ipc = 0.0;
    double miss_rate = 0.0;
    double mpki = 0.0;
    double ips = 0.0;
  };

  void start_next_app();
  /// Drops the in-flight run, keeping its profile's storage for the next.
  void end_run();
  PhaseProfile jittered(const PhaseProfile& phase) const;
  void apply_faults(TelemetrySample& sample);
  template <class Self, class Io> static void fields(Self& s, Io& io);

  ProcessorConfig config_;  // lint: ckpt-skip(construction config; restore only validates it)
  mutable util::Rng rng_;
  PerfModel perf_model_;    // lint: ckpt-skip(stateless table derived from config_)
  PowerModel power_model_;  // lint: ckpt-skip(stateless table derived from config_)
  std::optional<ThermalModel> thermal_;
  Workload* workload_ = nullptr;  // lint: ckpt-skip(non-owning; re-attach the same workload before resuming)
  std::optional<AppRun> run_;
  AppProfile spare_app_;  // storage of the last run's profile
  std::vector<AppExecution> completed_;
  std::size_t level_ = 0;
  std::size_t previous_level_ = 0;
  double time_s_ = 0.0;
  double jitter_miss_ = 1.0;     // per-interval multiplicative jitter
  double jitter_activity_ = 1.0;
  double mem_latency_scale_ = 1.0;
  HardwareFaultConfig faults_{};
  std::optional<FrozenCounters> frozen_;
};

}  // namespace fedpower::sim
