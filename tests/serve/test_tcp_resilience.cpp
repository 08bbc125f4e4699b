// TCP resilience surface (DESIGN.md §14): uplink re-send idempotence at
// 1/2/4 workers, the deterministic-mode stale-replay guard, the
// session-resume handshake (valid + malformed), idle half-open reaping,
// the commit_then_begin no-gap contract, and client reconnect through a
// scheduled connection reset.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "chaos/tcp_chaos_proxy.hpp"
#include "fed/codec.hpp"
#include "raw_client.hpp"
#include "serve/client.hpp"
#include "serve/epoll_server.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"

namespace fedpower::serve {
namespace {

using testkit::eventually;
using testkit::RawClient;
using testkit::upload_and_ack;

// A re-sent uplink (the reconnect protocol re-sends after a mid-ack
// transport error) folds to the first arrival: one verdict, the dedup
// counter ticks, and the committed bytes match the single-send model at
// every worker count.
TEST(TcpResilience, ResendIsIdempotentAtAnyWorkerCount) {
  std::vector<std::vector<double>> globals;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    ServeConfig config;
    config.workers = workers;
    ShardedServer server(2, config);
    server.initialize({0.0, 0.0});
    EpollFrontEnd front(&server);
    front.begin_round({0, 1});
    RawClient a(front.port());
    RawClient b(front.port());
    upload_and_ack(a, 0, 0, {1.0, 2.0});
    upload_and_ack(a, 0, 0, {1.0, 2.0});  // identical re-send, also acked
    upload_and_ack(b, 1, 0, {3.0, 6.0});
    const fed::RoundResult result = front.commit_round(2);
    EXPECT_EQ(result.effective_clients(), 2u);  // not 3
    EXPECT_EQ(server.stats().duplicates, 1u) << workers << " workers";
    globals.push_back(server.global_model());
    EXPECT_DOUBLE_EQ(globals.back()[0], 2.0);
    EXPECT_DOUBLE_EQ(globals.back()[1], 4.0);
    // A clean, fully-acked round leaves no corrupt or rejected verdict.
    front.stop();
    for (const std::size_t c : {0u, 1u}) {
      EXPECT_EQ(server.client_record(c).corrupt, 0u) << c;
      EXPECT_EQ(server.client_record(c).rejected, 0u) << c;
    }
  }
  EXPECT_EQ(globals[0], globals[1]);  // exact bytes, not approximate
  EXPECT_EQ(globals[0], globals[2]);
}

// A re-send that lands AFTER its round committed (the other failure
// window of the reconnect protocol) must not pollute the next round: in
// deterministic mode it is dropped as a replay, not absorbed.
TEST(TcpResilience, StaleReplayIsDroppedNotAggregated) {
  ShardedServer server(2);
  server.initialize({0.0});
  const fed::ModelCodec& codec = server.codec();
  server.begin_round({0});
  server.submit(0, 0, codec.encode(std::vector<double>{2.0}), 1.0);
  server.drain();
  server.commit_round(1);
  EXPECT_DOUBLE_EQ(server.global_model()[0], 2.0);

  server.begin_round({0, 1});
  // The replay: client 0's round-0 uplink arriving again after commit.
  server.submit(0, 0, codec.encode(std::vector<double>{2.0}), 1.0);
  server.drain();
  EXPECT_EQ(server.stats().duplicates, 1u);
  EXPECT_EQ(server.round_distinct_arrivals(), 0u);  // never joined round 1
  server.submit(0, 1, codec.encode(std::vector<double>{4.0}), 1.0);
  server.submit(1, 1, codec.encode(std::vector<double>{8.0}), 1.0);
  server.drain();
  server.commit_round(2);
  EXPECT_DOUBLE_EQ(server.global_model()[0], 6.0);  // mean(4, 8); no ghost
  EXPECT_EQ(server.stats().duplicates, 1u);
}

TEST(TcpResilience, ResumeHandshakeIsServedAndCounted) {
  ShardedServer server(3);
  server.initialize({1.0});
  EpollFrontEnd front(&server);
  RawClient client(front.port());
  ResumeRequest request;
  request.client = 2;
  request.last_acked_round = 0;
  client.send_bytes(
      encode_frame(kResumeDirection, encode_resume_request(request)));
  std::uint8_t direction = 0xFF;
  const std::vector<std::uint8_t> payload = client.recv_frame(direction);
  EXPECT_EQ(direction, kResumeDirection);
  ResumeReply reply;
  ASSERT_TRUE(decode_resume_reply(payload, reply));
  EXPECT_EQ(reply.version, 0u);
  EXPECT_EQ(reply.rounds_committed, 0u);
  EXPECT_EQ(front.sessions_resumed(), 1u);
  front.stop();
  EXPECT_EQ(server.client_resumes(2), 1u);
  EXPECT_EQ(server.client_resumes(0), 0u);
}

TEST(TcpResilience, MalformedResumeFramesAreProtocolErrors) {
  ShardedServer server(2);
  server.initialize({1.0});
  EpollFrontEnd front(&server);
  {  // wrong payload size: strict decode rejects it
    RawClient client(front.port());
    client.send_bytes(encode_frame(kResumeDirection, {}));
    EXPECT_TRUE(client.peer_closed());
  }
  EXPECT_TRUE(eventually([&] { return front.protocol_errors() == 1; }));
  {  // unknown client id
    RawClient client(front.port());
    ResumeRequest request;
    request.client = 99;
    client.send_bytes(
        encode_frame(kResumeDirection, encode_resume_request(request)));
    EXPECT_TRUE(client.peer_closed());
  }
  EXPECT_TRUE(eventually([&] { return front.protocol_errors() == 2; }));
  EXPECT_EQ(front.sessions_resumed(), 0u);
}

// The half-open slot leak: a client that dies without FIN used to hold
// its connection slot forever. With serve.idle_timeout_s armed the loop
// reaps it (counting the buffered partial frame as truncated) and keeps
// serving.
TEST(TcpResilience, IdleHalfOpenConnectionIsReaped) {
  ServeConfig config;
  config.idle_timeout_s = 0.05;
  ShardedServer server(1, config);
  server.initialize({0.0});
  EpollFrontEnd front(&server);
  RawClient half_open(front.port());
  // Header promising 100 bytes, then silence — no FIN, no data.
  half_open.send_bytes(std::vector<std::uint8_t>{100, 0, 0, 0, 0, 0xAB});
  EXPECT_TRUE(eventually([&] { return front.idle_reaped() == 1; }));
  EXPECT_EQ(front.truncated_frames(), 1u);
  EXPECT_EQ(front.protocol_errors(), 0u);
  // The slot is free and the loop is healthy: a live client still works.
  front.begin_round({0});
  RawClient live(front.port());
  upload_and_ack(live, 0, 0, {7.0});
  front.commit_round(1);
  EXPECT_DOUBLE_EQ(server.global_model()[0], 7.0);
  front.stop();
  EXPECT_EQ(server.stats().idle_reaped, 1u);
}

// commit_then_begin leaves no window in which the bumped version is
// visible with no round open — an upload for the new round is accepted
// immediately after it returns, and the distinct-arrival mirror is fresh.
TEST(TcpResilience, CommitThenBeginLeavesNoVersionGap) {
  ShardedServer server(2);
  server.initialize({0.0});
  EpollFrontEnd front(&server);
  front.begin_round({0, 1});
  RawClient a(front.port());
  RawClient b(front.port());
  upload_and_ack(a, 0, 0, {1.0});
  upload_and_ack(b, 1, 0, {3.0});
  EXPECT_TRUE(eventually([&] { return front.round_distinct() == 2; }));
  const fed::RoundResult first = front.commit_then_begin(2, {0, 1});
  EXPECT_EQ(first.effective_clients(), 2u);
  // The mirror was refreshed inside the same command: no stale full-draw
  // reading can trick a driver into committing the next round empty.
  EXPECT_EQ(front.round_distinct(), 0u);
  upload_and_ack(a, 0, 1, {5.0});
  upload_and_ack(b, 1, 1, {7.0});
  front.commit_round(2);
  EXPECT_DOUBLE_EQ(server.global_model()[0], 6.0);
  EXPECT_EQ(server.version(), 2u);
}

// On a QuorumError the next round is NOT begun: the round state is left
// for the driver to decide, exactly like a failed commit_round.
TEST(TcpResilience, CommitThenBeginDoesNotBeginAfterQuorumFailure) {
  ShardedServer server(2);
  server.initialize({5.0});
  EpollFrontEnd front(&server);
  front.begin_round({0, 1});
  RawClient a(front.port());
  upload_and_ack(a, 0, 0, {1.0});
  EXPECT_THROW(front.commit_then_begin(2, {0, 1}), fed::QuorumError);
  EXPECT_DOUBLE_EQ(server.global_model()[0], 5.0);
  // Recovery is explicit: begin again, meet quorum, commit.
  front.begin_round({0, 1});
  RawClient b(front.port());
  RawClient c(front.port());
  upload_and_ack(b, 0, 0, {1.0});
  upload_and_ack(c, 1, 0, {3.0});
  front.commit_round(2);
  EXPECT_DOUBLE_EQ(server.global_model()[0], 2.0);
}

// End to end through the chaos proxy: the first scheduled connection is a
// mid-stream reset, the retry loop backs off, reconnects and delivers —
// one verdict, correct bytes, no corrupt or rejected verdict.
TEST(TcpResilience, ClientReconnectsThroughAScheduledReset) {
  chaos::TcpChaosConfig config;
  config.reset_probability = 0.5;
  config.reset_min_bytes = 5;
  config.reset_window_bytes = 8;  // cut inside the resume handshake frame
  bool found = false;
  for (std::uint64_t seed = 1; seed < 4096 && !found; ++seed) {
    config.seed = seed;
    const chaos::TcpChaosSchedule schedule(config);
    found = schedule.at(0).fault == chaos::SocketFault::kReset &&
            schedule.at(1).fault == chaos::SocketFault::kClean &&
            schedule.at(2).fault == chaos::SocketFault::kClean;
  }
  ASSERT_TRUE(found);  // a seed with reset-then-clean exists in range

  ShardedServer server(1);
  server.initialize({0.0, 0.0});
  EpollFrontEnd front(&server);
  front.begin_round({0});
  chaos::TcpChaosProxy proxy(front.port(), config);

  ServeClientConfig client_config;
  client_config.port = proxy.port();
  client_config.client_id = 0;
  client_config.max_attempts = 50;
  client_config.backoff_initial_s = 0.001;
  client_config.backoff_max_s = 0.01;
  ServeClient client(client_config);
  client.set_last_acked_round(0);
  EXPECT_TRUE(
      client.upload(0, 1, fed::Float32Codec::instance().encode(std::vector<double>{1.0, 2.0})));
  EXPECT_GE(client.reconnects() + client.retries(), 1u);
  front.commit_round(1);
  EXPECT_DOUBLE_EQ(server.global_model()[0], 1.0);
  EXPECT_DOUBLE_EQ(server.global_model()[1], 2.0);
  proxy.stop();
  EXPECT_GE(proxy.resets(), 1u);
  front.stop();
  EXPECT_EQ(server.client_record(0).corrupt, 0u);
  EXPECT_EQ(server.client_record(0).rejected, 0u);
}

// upload() reports (not throws) when the round moved on while the client
// was away: the reconnect protocol's "your send already landed" signal.
TEST(TcpResilience, UploadReportsAnObsoleteBaseVersion) {
  ShardedServer server(1);
  server.initialize({0.0});
  EpollFrontEnd front(&server);
  front.begin_round({0});
  RawClient raw(front.port());
  upload_and_ack(raw, 0, 0, {9.0});
  front.commit_round(1);  // version is now 1

  ServeClient client([&] {
    ServeClientConfig config;
    config.port = front.port();
    config.client_id = 0;
    return config;
  }());
  EXPECT_FALSE(
      client.upload(0, 1, fed::Float32Codec::instance().encode(std::vector<double>{1.0})));
  EXPECT_DOUBLE_EQ(server.global_model()[0], 9.0);  // nothing was sent
}

}  // namespace
}  // namespace fedpower::serve
