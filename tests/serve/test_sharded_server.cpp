// ShardedServer contracts (DESIGN.md §12): verdict classification and the
// per-client verdict counters, injector-side backpressure that defers but never drops,
// quorum failure leaving committed state untouched, duplicate-upload
// dedup, throughput-mode staleness math, and the worker-count-invariant
// SRVR checkpoint section.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "ckpt/binary_io.hpp"
#include "ckpt/errors.hpp"
#include "fed/codec.hpp"
#include "fed/federation.hpp"

namespace fedpower::serve {
namespace {

std::vector<std::uint8_t> enc(const std::vector<double>& params) {
  return fed::Float32Codec::instance().encode(params);
}

TEST(ShardedServer, DeterministicCommitAveragesInClientOrder) {
  ServeConfig config;
  config.workers = 2;
  ShardedServer server(3, config);
  server.initialize({0.0, 0.0});
  server.begin_round({0, 1, 2});
  // Submit out of client order: commit must sort by client index anyway.
  server.submit(2, 0, enc({3.0, 6.0}), 1.0);
  server.submit(0, 0, enc({1.0, 2.0}), 1.0);
  server.submit(1, 0, enc({2.0, 4.0}), 1.0);
  server.drain();
  const fed::RoundResult result = server.commit_round(3);
  EXPECT_EQ(result.participants, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_TRUE(result.dropped.empty());
  EXPECT_TRUE(result.rejected.empty());
  EXPECT_EQ(result.effective_clients(), 3u);
  ASSERT_EQ(server.global_model().size(), 2u);
  EXPECT_DOUBLE_EQ(server.global_model()[0], 2.0);
  EXPECT_DOUBLE_EQ(server.global_model()[1], 4.0);
  EXPECT_EQ(server.version(), 1u);
  EXPECT_EQ(server.rounds_committed(), 1u);
  EXPECT_EQ(server.stats().uplinks_accepted, 3u);
}

TEST(ShardedServer, SampleWeightedCommitUsesSubmittedWeights) {
  ServeConfig config;
  config.aggregation = fed::AggregationMode::kSampleWeighted;
  ShardedServer server(2, config);
  server.initialize({0.0});
  server.begin_round({0, 1});
  server.submit(0, 0, enc({1.0}), 1.0);
  server.submit(1, 0, enc({5.0}), 3.0);
  server.drain();
  server.commit_round(2);
  // (1*1 + 5*3) / 4 = 4.
  EXPECT_DOUBLE_EQ(server.global_model()[0], 4.0);
}

TEST(ShardedServer, VerdictsClassifyCorruptWrongShapeAndNonFinite) {
  ServeConfig config;
  config.workers = 2;
  ShardedServer server(4, config);
  server.initialize({0.0});
  server.begin_round({0, 1, 2, 3});
  server.submit(0, 0, enc({2.0}), 1.0);              // clean
  server.submit(1, 0, std::vector<std::uint8_t>{0x01}, 1.0);  // undecodable
  server.submit(2, 0, enc({1.0, 2.0}), 1.0);         // wrong shape: corrupt
  server.submit(3, 0,
                enc({std::numeric_limits<double>::infinity()}), 1.0);
  server.drain();
  const fed::RoundResult result = server.commit_round(1);
  EXPECT_EQ(result.dropped, (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(result.rejected, (std::vector<std::size_t>{3}));
  EXPECT_EQ(result.effective_clients(), 1u);
  EXPECT_DOUBLE_EQ(server.global_model()[0], 2.0);
  EXPECT_EQ(server.stats().uplinks_accepted, 1u);
  EXPECT_EQ(server.stats().uplinks_corrupt, 2u);
  EXPECT_EQ(server.stats().uplinks_rejected, 1u);
  // Each client's record counts its own verdict and nothing else.
  const std::uint64_t expected[4][3] = {
      {1, 0, 0}, {0, 1, 0}, {0, 1, 0}, {0, 0, 1}};  // accepted/corrupt/rejected
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(server.client_record(c).accepted, expected[c][0]) << c;
    EXPECT_EQ(server.client_record(c).corrupt, expected[c][1]) << c;
    EXPECT_EQ(server.client_record(c).rejected, expected[c][2]) << c;
  }
  // A quorum-failed round still counts its verdicts. Base must track the
  // committed version: a lower base is a §14 stale replay and would be
  // dropped before the corruption check.
  server.begin_round({1});
  server.submit(1, 1, std::vector<std::uint8_t>{0xFF}, 1.0);
  server.drain();
  EXPECT_THROW(server.commit_round(1), fed::QuorumError);
  EXPECT_EQ(server.client_record(1).corrupt, 2u);
  EXPECT_EQ(server.client_record(1).accepted, 0u);
}

TEST(ShardedServer, BackpressureDefersButProcessesEveryFrame) {
  // A two-slot shard queue cannot absorb a 32-frame burst submitted with
  // no poll in between: the injector must defer the excess (never drop)
  // and flush it during drain. Every frame still gets a verdict.
  ServeConfig config;
  config.workers = 1;
  config.queue_depth = 2;
  config.batch_max = 2;
  ShardedServer server(1, config);
  server.initialize({0.0});
  server.begin_round({0});
  for (int i = 0; i < 32; ++i)
    server.submit(0, 0, enc({static_cast<double>(i + 1)}), 1.0);
  server.drain();
  EXPECT_GT(server.stats().deferred, 0u);
  EXPECT_EQ(server.stats().uplinks_accepted, 32u);
  EXPECT_EQ(server.client_record(0).accepted, 32u);
  server.commit_round(1);
  // Duplicate submissions in one round: first arrival wins the commit.
  EXPECT_DOUBLE_EQ(server.global_model()[0], 1.0);
}

TEST(ShardedServer, QuorumFailureLeavesCommittedStateUntouched) {
  ShardedServer server(2);
  server.initialize({7.0});
  server.begin_round({0, 1});
  server.submit(0, 0, enc({1.0}), 1.0);
  server.drain();
  try {
    server.commit_round(2);
    FAIL() << "commit below quorum must throw";
  } catch (const fed::QuorumError& err) {
    EXPECT_EQ(err.survivors(), 1u);
    EXPECT_EQ(err.required(), 2u);
  }
  EXPECT_DOUBLE_EQ(server.global_model()[0], 7.0);
  EXPECT_EQ(server.version(), 0u);
  EXPECT_EQ(server.rounds_committed(), 0u);
  // The aborted round is fully closed: a fresh one can open and commit.
  server.begin_round({0, 1});
  server.submit(0, 0, enc({1.0}), 1.0);
  server.submit(1, 0, enc({3.0}), 1.0);
  server.drain();
  server.commit_round(2);
  EXPECT_DOUBLE_EQ(server.global_model()[0], 2.0);
  EXPECT_EQ(server.rounds_committed(), 1u);
}

TEST(ShardedServer, QuorumClampsToParticipantCount) {
  // quorum larger than the draw clamps: a full house of 2 commits even
  // with quorum 10.
  ShardedServer server(2);
  server.initialize({0.0});
  server.begin_round({0, 1});
  server.submit(0, 0, enc({2.0}), 1.0);
  server.submit(1, 0, enc({4.0}), 1.0);
  server.drain();
  const fed::RoundResult result = server.commit_round(10);
  EXPECT_EQ(result.effective_clients(), 2u);
  EXPECT_DOUBLE_EQ(server.global_model()[0], 3.0);
}

TEST(ShardedServer, FramesOutsideTheRoundAreCountedButNotCommitted) {
  ShardedServer server(3);
  server.initialize({0.0});
  // No round open: the frame is processed and counted, owned by no round.
  server.submit(2, 0, enc({100.0}), 1.0);
  server.drain();
  EXPECT_EQ(server.stats().uplinks_accepted, 1u);
  server.begin_round({0, 1});
  server.submit(0, 0, enc({1.0}), 1.0);
  server.submit(2, 0, enc({100.0}), 1.0);  // not drawn this round
  server.submit(1, 0, enc({3.0}), 1.0);
  server.drain();
  const fed::RoundResult result = server.commit_round(2);
  EXPECT_EQ(result.participants, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(result.effective_clients(), 2u);
  EXPECT_DOUBLE_EQ(server.global_model()[0], 2.0);
  EXPECT_EQ(server.stats().uplinks_accepted, 4u);
  EXPECT_EQ(server.client_record(2).accepted, 2u);
}

TEST(ShardedServer, AbsentParticipantsAreReportedDropped) {
  ShardedServer server(3);
  server.initialize({0.0});
  server.begin_round({0, 1, 2});
  server.submit(1, 0, enc({5.0}), 1.0);
  server.drain();
  const fed::RoundResult result = server.commit_round(1);
  EXPECT_EQ(result.dropped, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(result.effective_clients(), 1u);
  EXPECT_DOUBLE_EQ(server.global_model()[0], 5.0);
}

TEST(ShardedServer, ThroughputModeDiscountsByStaleness) {
  ServeConfig config;
  config.mode = CommitMode::kThroughput;
  config.mixing_rate = 0.5;
  config.staleness_power = 1.0;
  ShardedServer server(1, config);
  server.initialize({0.0});
  server.begin_round({0});
  server.submit(0, 0, enc({1.0}), 1.0);
  server.drain();  // merge #1: staleness 0, w = 0.5 -> global 0.5, v1
  EXPECT_DOUBLE_EQ(server.global_model()[0], 0.5);
  EXPECT_EQ(server.version(), 1u);
  server.submit(0, 0, enc({1.0}), 1.0);  // still trained from version 0
  server.drain();  // merge #2: staleness 1, w = 0.25 -> 0.75*0.5 + 0.25
  EXPECT_DOUBLE_EQ(server.global_model()[0], 0.625);
  EXPECT_EQ(server.version(), 2u);
  const fed::RoundResult result = server.commit_round(1);
  EXPECT_EQ(result.effective_clients(), 1u);
  EXPECT_EQ(server.stats().merges, 2u);
  EXPECT_DOUBLE_EQ(server.stats().max_staleness, 1.0);
  EXPECT_DOUBLE_EQ(server.stats().mean_staleness, 0.5);
  // Committing a throughput round reports but does not re-aggregate.
  EXPECT_DOUBLE_EQ(server.global_model()[0], 0.625);
}

TEST(ShardedServer, ThroughputModeClampsAheadOfTimeBaseVersions) {
  // A client claiming a base version newer than the server's cannot
  // produce negative staleness: the base clamps to the current version.
  ServeConfig config;
  config.mode = CommitMode::kThroughput;
  config.mixing_rate = 0.5;
  ShardedServer server(1, config);
  server.initialize({0.0});
  server.begin_round({0});
  server.submit(0, 99, enc({1.0}), 1.0);
  server.drain();
  server.commit_round(1);
  EXPECT_DOUBLE_EQ(server.global_model()[0], 0.5);  // staleness clamped to 0
  EXPECT_DOUBLE_EQ(server.stats().max_staleness, 0.0);
}

// Drives the same upload sequence into a server built with `workers`
// shards; returns the SRVR section bytes at quiescence.
std::vector<std::uint8_t> snapshot_after_traffic(std::size_t workers) {
  ServeConfig config;
  config.workers = workers;
  ShardedServer server(5, config);
  server.initialize({1.0, 2.0});
  server.begin_round({0, 1, 2, 3, 4});
  server.submit(0, 0, enc({1.0, 1.0}), 1.0);
  server.submit(1, 0, enc({3.0, 5.0}), 1.0);
  server.submit(2, 0, std::vector<std::uint8_t>{0xAB}, 1.0);  // corrupt
  server.submit(3, 0, enc({std::numeric_limits<double>::quiet_NaN(), 0.0}),
                1.0);                // rejected
  server.submit(4, 0, enc({2.0, 0.0}), 1.0);
  server.drain();
  server.commit_round(2);
  server.begin_round({0, 1});
  server.submit(0, 1, enc({4.0, 4.0}), 1.0);
  server.submit(1, 1, enc({6.0, 8.0}), 1.0);
  server.drain();
  server.commit_round(2);
  ckpt::Writer out;
  server.save_state(out);
  return out.take();
}

TEST(ShardedServer, CheckpointBytesAreWorkerCountInvariant) {
  const std::vector<std::uint8_t> one = snapshot_after_traffic(1);
  EXPECT_EQ(one, snapshot_after_traffic(2));
  EXPECT_EQ(one, snapshot_after_traffic(4));
}

TEST(ShardedServer, CheckpointRoundtripRestoresEveryField) {
  const std::vector<std::uint8_t> bytes = snapshot_after_traffic(2);
  ServeConfig config;
  config.workers = 3;  // worker count is runtime-only, not snapshot state
  ShardedServer restored(5, config);
  restored.initialize({0.0, 0.0});
  ckpt::Reader in(bytes);
  restored.restore_state(in);
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(restored.version(), 2u);
  EXPECT_EQ(restored.rounds_committed(), 2u);
  EXPECT_EQ(restored.stats().uplinks_accepted, 5u);
  EXPECT_EQ(restored.stats().uplinks_corrupt, 1u);
  EXPECT_EQ(restored.stats().uplinks_rejected, 1u);
  EXPECT_EQ(restored.client_record(0).accepted, 2u);
  EXPECT_EQ(restored.client_record(2).corrupt, 1u);
  // Round 1 aggregate: mean of {1,1},{3,5},{2,0} = {2,2}; round 2: mean of
  // {4,4},{6,8} = {5,6}.
  EXPECT_DOUBLE_EQ(restored.global_model()[0], 5.0);
  EXPECT_DOUBLE_EQ(restored.global_model()[1], 6.0);
  // The restored server serves rounds again, byte-for-byte equivalent.
  ckpt::Writer again;
  restored.save_state(again);
  EXPECT_EQ(again.data(), bytes);
}

TEST(ShardedServer, RestoreRejectsClientCountMismatch) {
  const std::vector<std::uint8_t> bytes = snapshot_after_traffic(1);
  ShardedServer other(4);
  other.initialize({0.0, 0.0});
  ckpt::Reader in(bytes);
  EXPECT_THROW(other.restore_state(in), ckpt::StateMismatchError);
}

TEST(ShardedServerDeathTest, Preconditions) {
  EXPECT_DEATH(ShardedServer(0), "precondition");
  {
    ServeConfig bad;
    bad.mixing_rate = 0.0;
    EXPECT_DEATH(ShardedServer(1, bad), "precondition");
  }
  {
    ServeConfig bad;
    bad.staleness_power = -1.0;
    EXPECT_DEATH(ShardedServer(1, bad), "precondition");
  }
  EXPECT_DEATH(
      {
        ShardedServer s(1);
        s.submit(0, 0, {}, 1.0);  // not initialized
      },
      "precondition");
  EXPECT_DEATH(
      {
        ShardedServer s(2);
        s.initialize({0.0});
        s.submit(2, 0, {}, 1.0);  // client out of range
      },
      "precondition");
}

}  // namespace
}  // namespace fedpower::serve
