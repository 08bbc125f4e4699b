#include "sim/processor.hpp"

#include <algorithm>
#include <cmath>

#include "ckpt/fields.hpp"

namespace fedpower::sim {

namespace {

// Executed when no workload is attached and no application is in flight:
// a WFI-style idle state — minimal switching activity and almost no
// instruction retirement (the core mostly sleeps between wakeups).
const PhaseProfile kIdlePhase{100.0, 0.0, 0.0, 0.03, 1e30};
const std::string kIdleName = "<idle>";

// Upper bound on phase/application boundaries handled inside one interval;
// purely a guard against degenerate (near-zero-length) workloads.
constexpr int kMaxSegmentsPerInterval = 100000;

}  // namespace

Processor::Processor(ProcessorConfig config, util::Rng rng)
    : config_(std::move(config)),
      rng_(rng),
      perf_model_(config_.perf),
      power_model_(config_.power) {
  FEDPOWER_EXPECTS(config_.sensor_noise_w >= 0.0);
  FEDPOWER_EXPECTS(config_.workload_jitter >= 0.0 &&
                   config_.workload_jitter < 1.0);
  FEDPOWER_EXPECTS(config_.dvfs_transition_us >= 0.0);
  if (config_.enable_thermal) thermal_.emplace(config_.thermal);
  reset(rng);
}

void Processor::reset(util::Rng rng) {
  rng_ = rng;
  if (thermal_) thermal_->reset();
  end_run();
  completed_.clear();
  level_ = 0;
  previous_level_ = 0;
  time_s_ = 0.0;
  jitter_miss_ = 1.0;
  jitter_activity_ = 1.0;
  mem_latency_scale_ = 1.0;
  faults_ = HardwareFaultConfig{};
  frozen_.reset();
}

void Processor::set_workload(Workload* workload) {
  workload_ = workload;
  end_run();
}

void Processor::set_level(std::size_t level) {
  FEDPOWER_EXPECTS(level < config_.vf_table.size());
  // A stuck DVFS actuator acknowledges the request (a real driver returns
  // success from the sysfs write) but leaves the operating point alone.
  if (faults_.dvfs_stuck) return;
  level_ = level;
}

void Processor::inject_faults(const HardwareFaultConfig& faults) {
  FEDPOWER_EXPECTS(!faults.stuck_power_sensor || faults.stuck_power_w >= 0.0);
  faults_ = faults;
  if (!faults_.frozen_counters) frozen_.reset();
}

void Processor::apply_faults(TelemetrySample& sample) {
  // Applied after the honest sample is fully computed — including its
  // sensor-noise draw — so arming a fault never shifts the RNG stream.
  if (faults_.stuck_power_sensor) sample.power_w = faults_.stuck_power_w;
  if (faults_.frozen_counters) {
    if (!frozen_)
      frozen_ = FrozenCounters{sample.instructions, sample.cycles,
                               sample.ipc,          sample.miss_rate,
                               sample.mpki,         sample.ips};
    sample.instructions = frozen_->instructions;
    sample.cycles = frozen_->cycles;
    sample.ipc = frozen_->ipc;
    sample.miss_rate = frozen_->miss_rate;
    sample.mpki = frozen_->mpki;
    sample.ips = frozen_->ips;
  }
}

void Processor::reset_app() { end_run(); }

void Processor::end_run() {
  if (!run_) return;
  spare_app_ = std::move(run_->app);
  run_.reset();
}

void Processor::set_memory_latency_scale(double scale) {
  FEDPOWER_EXPECTS(scale >= 1.0);
  mem_latency_scale_ = scale;
}

const std::string& Processor::current_app_name() const noexcept {
  return run_ ? run_->app.name : kIdleName;
}

double Processor::temperature_c() const noexcept {
  return thermal_ ? thermal_->temperature_c() : config_.thermal.ambient_c;
}

void Processor::start_next_app() {
  if (workload_ == nullptr) {
    end_run();
    return;
  }
  AppRun next;
  // A copy into the storage of the last finished run's profile.
  next.app = std::move(spare_app_);
  next.app = workload_->next(rng_);
  next.start_time_s = time_s_;
  run_ = std::move(next);
}

PhaseProfile Processor::jittered(const PhaseProfile& phase) const {
  PhaseProfile p = phase;
  p.llc_miss_rate = std::clamp(phase.llc_miss_rate * jitter_miss_, 0.0, 1.0);
  p.activity = std::clamp(phase.activity * jitter_activity_, 0.0, 1.0);
  return p;
}

TelemetrySample Processor::run_interval(double dt_s) {
  FEDPOWER_EXPECTS(dt_s > 0.0);

  // Fresh workload-behaviour jitter for this interval.
  if (config_.workload_jitter > 0.0) {
    jitter_miss_ =
        std::max(0.1, rng_.normal(1.0, config_.workload_jitter));
    jitter_activity_ =
        std::max(0.1, rng_.normal(1.0, config_.workload_jitter));
  }

  const VfLevel& vf = config_.vf_table.level(level_);

  double remaining = dt_s;
  double energy = 0.0;
  double instructions = 0.0;
  double accesses = 0.0;
  double misses = 0.0;

  // V/f transition penalty: the core halts briefly while the PLL relocks;
  // only leakage is consumed.
  if (level_ != previous_level_ && config_.dvfs_transition_us > 0.0) {
    const double t_switch =
        std::min(remaining, config_.dvfs_transition_us * 1e-6);
    energy += power_model_.leakage(vf) * t_switch;
    remaining -= t_switch;
    previous_level_ = level_;
  }

  int segments = 0;
  while (remaining > 1e-12) {
    FEDPOWER_ASSERT(++segments < kMaxSegmentsPerInterval);
    if (!run_) {
      start_next_app();
      if (!run_) {
        // No workload: idle for the rest of the interval.
        const PhasePerf perf =
            perf_model_.evaluate(kIdlePhase, vf.freq_mhz, mem_latency_scale_);
        double power =
            power_model_.total(vf, kIdlePhase, perf.stall_fraction);
        if (thermal_)
          power += power_model_.leakage(vf) *
                   (thermal_->leakage_multiplier() - 1.0);
        energy += power * remaining;
        instructions += perf.ips * remaining;
        remaining = 0.0;
        break;
      }
    }

    const PhaseProfile& base_phase = run_->app.phases[run_->phase_index];
    const PhaseProfile phase = jittered(base_phase);
    const PhasePerf perf =
        perf_model_.evaluate(phase, vf.freq_mhz, mem_latency_scale_);

    const double phase_remaining_instr =
        base_phase.instructions - run_->phase_instructions_done;
    const double t_phase_end = phase_remaining_instr / perf.ips;
    const double t_seg = std::min(remaining, t_phase_end);

    double power = power_model_.total(vf, phase, perf.stall_fraction);
    if (thermal_)
      power +=
          power_model_.leakage(vf) * (thermal_->leakage_multiplier() - 1.0);

    const double seg_instr = perf.ips * t_seg;
    energy += power * t_seg;
    instructions += seg_instr;
    accesses += seg_instr * phase.llc_apki / 1000.0;
    misses += seg_instr * phase.llc_apki / 1000.0 * phase.llc_miss_rate;
    run_->instructions += seg_instr;
    run_->energy_j += power * t_seg;
    run_->phase_instructions_done += seg_instr;
    remaining -= t_seg;

    if (run_->phase_instructions_done >=
        base_phase.instructions * (1.0 - 1e-12)) {
      run_->phase_instructions_done = 0.0;
      ++run_->phase_index;
      if (run_->phase_index >= run_->app.phases.size()) {
        // Application complete: record it and pull the next one.
        const double end_time = time_s_ + (dt_s - remaining);
        AppExecution done;
        done.name = run_->app.name;
        done.start_time_s = run_->start_time_s;
        done.exec_time_s = end_time - run_->start_time_s;
        done.energy_j = run_->energy_j;
        done.instructions = run_->instructions;
        done.avg_power_w =
            done.exec_time_s > 0.0 ? done.energy_j / done.exec_time_s : 0.0;
        done.avg_ips = done.exec_time_s > 0.0
                           ? done.instructions / done.exec_time_s
                           : 0.0;
        completed_.push_back(std::move(done));
        end_run();
      }
    }
  }

  time_s_ += dt_s;

  const double true_power = energy / dt_s;
  if (thermal_) thermal_->step(true_power, dt_s);

  TelemetrySample sample;
  sample.time_s = time_s_;
  sample.level = level_;
  sample.freq_mhz = vf.freq_mhz;
  sample.voltage_v = vf.voltage_v;
  sample.true_power_w = true_power;
  sample.power_w = std::max(
      0.0, true_power + rng_.normal(0.0, config_.sensor_noise_w));
  sample.energy_j = energy;
  sample.instructions = instructions;
  sample.cycles = vf.freq_mhz * 1e6 * dt_s;
  sample.ipc = sample.cycles > 0.0 ? instructions / sample.cycles : 0.0;
  sample.miss_rate = accesses > 0.0 ? misses / accesses : 0.0;
  sample.mpki = instructions > 0.0 ? misses / instructions * 1000.0 : 0.0;
  sample.ips = instructions / dt_s;
  sample.temperature_c = temperature_c();
  sample.app_name = current_app_name();
  previous_level_ = level_;
  apply_faults(sample);
  return sample;
}

namespace {

constexpr ckpt::Tag kProcessorTag{'P', 'R', 'O', 'C'};

template <class Phase, class Io>
void phase_fields(Phase& phase, Io& io) {
  io.f64(phase.base_cpi, phase.llc_apki, phase.llc_miss_rate, phase.activity,
         phase.instructions);
}

}  // namespace

template <class Self, class Io>
void Processor::fields(Self& s, Io& io) {
  io.tag(kProcessorTag, "processor");
  io.rng(s.rng_);
  io.expect_flag(s.thermal_.has_value(), "thermal-model flag");
  if (s.thermal_) {
    double temperature_c = s.thermal_->temperature_c();
    io.f64(temperature_c);
    if constexpr (Io::kLoad) s.thermal_->set_temperature_c(temperature_c);
  }
  // In-flight application run, profile stored verbatim: the profile was
  // drawn (and possibly scaled) by the workload at start time, so the
  // resumed run must finish the exact same instance. A restore reads it
  // into the storage of the run it ends.
  if constexpr (Io::kLoad) s.end_run();
  io.optional(s.run_, [&](auto& run) {
    if constexpr (Io::kLoad) run.app = std::move(s.spare_app_);
    io.str(run.app.name);
    io.list(run.app.phases, [&](auto& phase) { phase_fields(phase, io); });
    io.u64(run.phase_index);
    io.f64(run.phase_instructions_done, run.start_time_s, run.instructions,
           run.energy_j);
    io.check(run.phase_index < run.app.phases.size(),
             "has an in-flight run with an out-of-range phase index");
  });
  io.list(s.completed_, [&](auto& exec) {
    io.str(exec.name);
    io.f64(exec.start_time_s, exec.exec_time_s, exec.energy_j,
           exec.instructions, exec.avg_power_w, exec.avg_ips);
  });
  io.u64(s.level_, s.previous_level_);
  io.check(s.level_ < s.config_.vf_table.size() &&
               s.previous_level_ < s.config_.vf_table.size(),
           "V/f level is out of range for this table");
  io.f64(s.time_s_, s.jitter_miss_, s.jitter_activity_, s.mem_latency_scale_);
  // Fault state is appended only when faults are armed, keeping clean-run
  // snapshots byte-identical to the fault-free format. Faults are config,
  // not state — the restoring processor must already be armed the same way.
  if (s.faults_.any())
    io.optional(s.frozen_, [&](auto& frozen) {
      io.f64(frozen.instructions, frozen.cycles, frozen.ipc, frozen.miss_rate,
             frozen.mpki, frozen.ips);
    });
}

FEDPOWER_CKPT_FIELDS(Processor)

}  // namespace fedpower::sim
