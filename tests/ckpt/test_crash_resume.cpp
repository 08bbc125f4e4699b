// The tentpole acceptance test (DESIGN.md §9): a federated run killed at
// round k and resumed from its durable snapshot finishes bit-identical to
// the run that was never interrupted — same global model, same per-device
// and fleet curves, same traffic totals — at every thread count. Corruption
// of the newest rotation entry silently falls back to the previous one.
#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ckpt/errors.hpp"
#include "ckpt/rotation.hpp"
#include "ckpt/snapshot.hpp"
#include "sim/splash2.hpp"

namespace fedpower::core {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& name)
      : path(fs::temp_directory_path() / ("fedpower_resume_" + name)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

ExperimentConfig resume_config() {
  ExperimentConfig config;
  config.rounds = 20;
  config.controller.steps_per_round = 10;
  config.eval.episode_intervals = 6;
  config.seed = 5;
  return config;
}

std::vector<std::vector<sim::AppProfile>> two_devices() {
  return {{*sim::splash2_app("fft")}, {*sim::splash2_app("radix")}};
}

void expect_same_curve(const RoundCurve& a, const RoundCurve& b,
                       const char* what) {
  EXPECT_EQ(a.reward, b.reward) << what;
  EXPECT_EQ(a.mean_freq_mhz, b.mean_freq_mhz) << what;
  EXPECT_EQ(a.stddev_freq_mhz, b.stddev_freq_mhz) << what;
  EXPECT_EQ(a.mean_power_w, b.mean_power_w) << what;
  EXPECT_EQ(a.violation_rate, b.violation_rate) << what;
}

void expect_same_result(const FederatedRunResult& a,
                        const FederatedRunResult& b) {
  // Guard against a vacuous pass: the runs must have produced real output.
  ASSERT_FALSE(b.global_params.empty());
  ASSERT_FALSE(b.fleet.reward.empty());
  EXPECT_EQ(a.global_params, b.global_params);
  ASSERT_EQ(a.devices.size(), b.devices.size());
  for (std::size_t d = 0; d < a.devices.size(); ++d)
    expect_same_curve(a.devices[d], b.devices[d], "device curve");
  expect_same_curve(a.fleet, b.fleet, "fleet curve");
  EXPECT_EQ(a.eval_app_per_round, b.eval_app_per_round);
  EXPECT_EQ(a.traffic.uplink_transfers, b.traffic.uplink_transfers);
  EXPECT_EQ(a.traffic.uplink_bytes, b.traffic.uplink_bytes);
  EXPECT_EQ(a.traffic.downlink_transfers, b.traffic.downlink_transfers);
  EXPECT_EQ(a.traffic.downlink_bytes, b.traffic.downlink_bytes);
}

/// Runs `config` for 8 rounds with snapshots every 4, then resumes it from
/// the newest snapshot to its full 20 rounds.
FederatedRunResult resume_after_round_8(const ExperimentConfig& config,
                                        const std::string& name) {
  const TempDir dir(name);
  ExperimentConfig first = config;
  first.rounds = 8;
  first.checkpoint.every_rounds = 4;
  first.checkpoint.dir = dir.path.string();
  (void)run_federated(first, two_devices(), sim::splash2_suite(), true);
  // Snapshots after rounds 4 and 8.
  EXPECT_EQ(ckpt::SnapshotRotation(dir.path.string(), 3).sequences(),
            (std::vector<std::uint64_t>{1, 2}));

  ExperimentConfig second = config;
  second.checkpoint.resume_from = dir.path.string();
  return run_federated(second, two_devices(), sim::splash2_suite(), true);
}

/// Runs 8 rounds with snapshots, then resumes to 20, at the given thread
/// count, and compares against the uninterrupted 20-round run.
void check_resume_bit_identical(std::size_t num_threads) {
  ExperimentConfig config = resume_config();
  config.num_threads = num_threads;
  const auto straight = run_federated(config, two_devices(),
                                      sim::splash2_suite(), true);
  expect_same_result(
      resume_after_round_8(config, "fed_" + std::to_string(num_threads)),
      straight);
}

/// The same kill/resume through the sharded serve pipeline (SFED+SRV2
/// sections) at the given worker count: the resumed run matches the
/// uninterrupted serve run, whose committed model matches the sync run's.
void check_serve_resume_bit_identical(std::size_t workers) {
  ExperimentConfig config = resume_config();
  const auto sync = run_federated(config, two_devices(),
                                  sim::splash2_suite(), true);
  config.serve.enabled = true;
  config.serve.workers = workers;
  const auto straight = run_federated(config, two_devices(),
                                      sim::splash2_suite(), true);
  expect_same_result(
      resume_after_round_8(config, "serve_" + std::to_string(workers)),
      straight);
  EXPECT_EQ(straight.global_params, sync.global_params);
}

void expect_same_defense(const RobustnessReport& a,
                         const RobustnessReport& b) {
  EXPECT_EQ(a.screened_per_round, b.screened_per_round);
  EXPECT_EQ(a.quarantined_per_round, b.quarantined_per_round);
  EXPECT_EQ(a.readmitted_per_round, b.readmitted_per_round);
  EXPECT_EQ(a.clipped_per_round, b.clipped_per_round);
  EXPECT_EQ(a.final_reputation, b.final_reputation);
}

/// The serve kill/resume with the defense armed and device 1 sign-flipping
/// its uploads: the defense state (DFNS after SRV2) resumes bit-identically,
/// and the uninterrupted serve run screens exactly as the sync run does.
void check_defended_serve_resume_bit_identical(std::size_t workers) {
  ExperimentConfig config = resume_config();
  config.defense.enabled = true;
  config.defense.warmup_rounds = 1;
  config.faults.attack = fed::UploadAttack::kSignFlip;
  config.faults.fraction = 0.5;
  const auto sync = run_federated(config, two_devices(),
                                  sim::splash2_suite(), true);
  config.serve.enabled = true;
  config.serve.workers = workers;
  const auto straight = run_federated(config, two_devices(),
                                      sim::splash2_suite(), true);
  const auto resumed = resume_after_round_8(
      config, "defended_serve_" + std::to_string(workers));
  expect_same_result(resumed, straight);
  expect_same_defense(resumed.robustness, straight.robustness);
  EXPECT_EQ(straight.global_params, sync.global_params);
  expect_same_defense(straight.robustness, sync.robustness);
  // Screening fired before the snapshot round, so the resume carried it.
  ASSERT_GE(straight.robustness.screened_per_round.size(), 8u);
  std::uint64_t screened_by_round_8 = 0;
  for (std::size_t r = 0; r < 8; ++r)
    screened_by_round_8 += straight.robustness.screened_per_round[r];
  EXPECT_GT(screened_by_round_8, 0u);
}

TEST(CrashResume, FederatedResumeIsBitIdenticalSerial) {
  check_resume_bit_identical(1);
}

TEST(CrashResume, FederatedResumeIsBitIdenticalFourThreads) {
  check_resume_bit_identical(4);
}

TEST(CrashResume, ServeResumeIsBitIdenticalOneWorker) {
  check_serve_resume_bit_identical(1);
}

TEST(CrashResume, ServeResumeIsBitIdenticalFourWorkers) {
  check_serve_resume_bit_identical(4);
}

TEST(CrashResume, DefendedServeResumeIsBitIdenticalFourWorkers) {
  check_defended_serve_resume_bit_identical(4);
}

TEST(CrashResume, CorruptNewestSnapshotFallsBackToOlderEntry) {
  const TempDir dir("fed_corrupt");
  const ExperimentConfig config = resume_config();
  const auto straight = run_federated(config, two_devices(),
                                      sim::splash2_suite(), true);

  ExperimentConfig first = config;
  first.rounds = 8;
  first.checkpoint.every_rounds = 4;
  first.checkpoint.dir = dir.path.string();
  (void)run_federated(first, two_devices(), sim::splash2_suite(), true);

  // Single-byte damage to the newest snapshot (round 8): the resume must
  // silently fall back to the round-4 entry and still reproduce the
  // uninterrupted run exactly — just redoing more rounds.
  const ckpt::SnapshotRotation rotation(dir.path.string(), 3);
  const std::string newest = rotation.path_for(2);
  auto bytes = ckpt::read_file_bytes(newest);
  bytes[bytes.size() / 2] ^= 0x10;
  {
    std::ofstream out(newest, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  ExperimentConfig second = config;
  second.checkpoint.resume_from = dir.path.string();
  const auto resumed = run_federated(second, two_devices(),
                                     sim::splash2_suite(), true);
  expect_same_result(resumed, straight);
}

TEST(CrashResume, LocalOnlyResumeIsBitIdentical) {
  const TempDir dir("local");
  ExperimentConfig config = resume_config();
  config.rounds = 10;
  const auto straight = run_local_only(config, two_devices(),
                                       sim::splash2_suite(), true);

  ExperimentConfig first = config;
  first.rounds = 4;
  first.checkpoint.every_rounds = 4;
  first.checkpoint.dir = dir.path.string();
  (void)run_local_only(first, two_devices(), sim::splash2_suite(), true);

  ExperimentConfig second = config;
  second.checkpoint.resume_from = dir.path.string();
  const auto resumed = run_local_only(second, two_devices(),
                                      sim::splash2_suite(), true);
  EXPECT_EQ(resumed.final_params, straight.final_params);
  ASSERT_EQ(resumed.devices.size(), straight.devices.size());
  for (std::size_t d = 0; d < straight.devices.size(); ++d)
    expect_same_curve(resumed.devices[d], straight.devices[d],
                      "local device curve");
  expect_same_curve(resumed.fleet, straight.fleet, "local fleet curve");
}

TEST(CrashResume, ResumeFromMissingPathThrowsNotFound) {
  ExperimentConfig config = resume_config();
  config.rounds = 2;
  config.checkpoint.resume_from = "/nonexistent_fedpower_snapshot.fpck";
  EXPECT_THROW((void)run_federated(config, two_devices(),
                                   sim::splash2_suite(), true),
               ckpt::SnapshotNotFoundError);
}

TEST(CrashResume, CheckpointingWithoutDirIsAConfigError) {
  ExperimentConfig config = resume_config();
  config.rounds = 2;
  config.checkpoint.every_rounds = 1;  // dir left empty
  EXPECT_THROW((void)run_federated(config, two_devices(),
                                   sim::splash2_suite(), true),
               ckpt::CkptError);
}

TEST(CrashResume, FederatedSnapshotRejectedByLocalRunner) {
  const TempDir dir("cross_mode");
  ExperimentConfig first = resume_config();
  first.rounds = 4;
  first.checkpoint.every_rounds = 4;
  first.checkpoint.dir = dir.path.string();
  (void)run_federated(first, two_devices(), sim::splash2_suite(), true);

  ExperimentConfig second = resume_config();
  second.rounds = 8;
  second.checkpoint.resume_from = dir.path.string();
  // The section tag names the experiment type; a federated snapshot cannot
  // silently restore into a local-only run.
  EXPECT_THROW((void)run_local_only(second, two_devices(),
                                    sim::splash2_suite(), true),
               ckpt::CorruptSnapshotError);
}

TEST(CrashResume, ResumeFromExplicitSnapshotFile) {
  const TempDir dir("explicit_file");
  ExperimentConfig config = resume_config();
  config.rounds = 12;
  const auto straight = run_federated(config, two_devices(),
                                      sim::splash2_suite(), true);

  ExperimentConfig first = config;
  first.rounds = 6;
  first.checkpoint.every_rounds = 6;
  first.checkpoint.dir = dir.path.string();
  (void)run_federated(first, two_devices(), sim::splash2_suite(), true);

  ExperimentConfig second = config;
  second.checkpoint.resume_from =
      ckpt::SnapshotRotation(dir.path.string(), 3).path_for(1);
  const auto resumed = run_federated(second, two_devices(),
                                     sim::splash2_suite(), true);
  expect_same_result(resumed, straight);
}

}  // namespace
}  // namespace fedpower::core
