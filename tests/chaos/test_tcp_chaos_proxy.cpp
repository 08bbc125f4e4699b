// Seeded TCP fault-injection proxy (DESIGN.md §14): the fixed-draw
// schedule contract (same-seed replay, random access, probability-
// independent stream offsets, agreement with the raw rng stream), fate
// bookkeeping, and a live proxy forwarding clean / stalled / refused
// connections in front of a real EpollFrontEnd, serving concurrent
// connections and reaping finished handler threads.
#include "chaos/tcp_chaos_proxy.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "fed/codec.hpp"
#include "serve/client.hpp"
#include "serve/epoll_server.hpp"
#include "serve/server.hpp"
#include "serve/socket_io.hpp"
#include "util/rng.hpp"

namespace fedpower::chaos {
namespace {

TcpChaosConfig mixed_config(std::uint64_t seed) {
  TcpChaosConfig config;
  config.seed = seed;
  config.refuse_probability = 0.25;
  config.reset_probability = 0.25;
  config.truncate_probability = 0.25;
  config.stall_probability = 0.15;
  config.reset_min_bytes = 7;
  config.reset_window_bytes = 100;
  config.stall_min_s = 0.001;
  config.stall_max_s = 0.004;
  return config;
}

TEST(TcpChaosSchedule, SameSeedReplaysTheSameSchedule) {
  TcpChaosSchedule a(mixed_config(31));
  TcpChaosSchedule b(mixed_config(31));
  for (int i = 0; i < 64; ++i) {
    const ConnectionPlan pa = a.next();
    const ConnectionPlan pb = b.next();
    EXPECT_EQ(pa.fault, pb.fault);
    EXPECT_EQ(pa.fault_after_bytes, pb.fault_after_bytes);
    EXPECT_DOUBLE_EQ(pa.stall_s, pb.stall_s);
  }
  EXPECT_EQ(a.drawn(), 64u);
}

TEST(TcpChaosSchedule, RandomAccessAgreesWithSequentialDraws) {
  TcpChaosSchedule sequential(mixed_config(7));
  const TcpChaosSchedule oracle(mixed_config(7));
  for (std::size_t k = 0; k < 32; ++k) {
    const ConnectionPlan step = sequential.next();
    const ConnectionPlan jump = oracle.at(k);
    EXPECT_EQ(step.fault, jump.fault) << "connection " << k;
    EXPECT_EQ(step.fault_after_bytes, jump.fault_after_bytes);
    EXPECT_DOUBLE_EQ(step.stall_s, jump.stall_s);
  }
  // Random access never advances the sequential cursor.
  EXPECT_EQ(oracle.drawn(), 0u);
}

// The fixed-draw contract: every connection consumes exactly
// kDrawsPerConnection stream draws whether its fault fires or not, so the
// offset/stall parameters of connection k are a function of (seed, k)
// alone — changing the fate probabilities must not shift them.
TEST(TcpChaosSchedule, StreamOffsetsAreProbabilityIndependent) {
  TcpChaosConfig quiet = mixed_config(99);
  quiet.refuse_probability = 0.0;
  quiet.reset_probability = 0.0;
  quiet.truncate_probability = 0.0;
  quiet.stall_probability = 0.0;
  const TcpChaosSchedule noisy(mixed_config(99));
  const TcpChaosSchedule calm(quiet);
  for (std::size_t k = 0; k < 48; ++k) {
    const ConnectionPlan a = noisy.at(k);
    const ConnectionPlan b = calm.at(k);
    EXPECT_EQ(a.fault_after_bytes, b.fault_after_bytes) << "connection " << k;
    EXPECT_DOUBLE_EQ(a.stall_s, b.stall_s);
    EXPECT_EQ(b.fault, SocketFault::kClean);  // zero mass => always clean
  }
}

// The schedule is pinned to the raw xoshiro stream: connection k's plan is
// computed from uniforms 3k, 3k+1, 3k+2 and nothing else.
TEST(TcpChaosSchedule, DrawsMatchTheRawRngStream) {
  const TcpChaosConfig config = mixed_config(1234);
  const TcpChaosSchedule schedule(config);
  util::Rng rng(config.seed);
  for (std::size_t k = 0; k < 24; ++k) {
    const double fate = rng.uniform();
    const double offset = rng.uniform();
    const double stall = rng.uniform();
    SocketFault expected = SocketFault::kClean;
    double edge = config.refuse_probability;
    if (fate < edge) {
      expected = SocketFault::kRefuse;
    } else if (fate < (edge += config.reset_probability)) {
      expected = SocketFault::kReset;
    } else if (fate < (edge += config.truncate_probability)) {
      expected = SocketFault::kTruncate;
    } else if (fate < (edge += config.stall_probability)) {
      expected = SocketFault::kStall;
    }
    const ConnectionPlan plan = schedule.at(k);
    EXPECT_EQ(plan.fault, expected) << "connection " << k;
    EXPECT_EQ(plan.fault_after_bytes,
              config.reset_min_bytes +
                  static_cast<std::uint64_t>(
                      offset * static_cast<double>(config.reset_window_bytes)));
    EXPECT_DOUBLE_EQ(plan.stall_s,
                     config.stall_min_s +
                         stall * (config.stall_max_s - config.stall_min_s));
  }
}

TEST(TcpChaosScheduleDeathTest, RejectsImpossibleProbabilityMass) {
  TcpChaosConfig config;
  config.refuse_probability = 0.6;
  config.reset_probability = 0.6;
  EXPECT_DEATH(TcpChaosSchedule{config}, "precondition");
}

// --- live proxy in front of a real front end ------------------------------

serve::ServeClientConfig client_config(std::uint16_t port) {
  serve::ServeClientConfig config;
  config.port = port;
  config.client_id = 0;
  config.max_attempts = 32;
  config.backoff_initial_s = 0.001;
  config.backoff_max_s = 0.01;
  return config;
}

TEST(TcpChaosProxy, CleanScheduleForwardsTrafficTransparently) {
  serve::ShardedServer server(1);
  server.initialize({0.0, 0.0});
  serve::EpollFrontEnd front(&server);
  front.begin_round({0});
  TcpChaosConfig config;  // all probabilities zero: a pure relay
  config.seed = 5;
  TcpChaosProxy proxy(front.port(), config);

  serve::ServeClient client(client_config(proxy.port()));
  const serve::FetchResult fetched = client.fetch();
  EXPECT_EQ(fetched.version, 0u);
  const fed::ModelCodec& codec = fed::Float32Codec::instance();
  EXPECT_TRUE(client.upload(0, 1, codec.encode(std::vector<double>{1.5, -2.5})));
  front.commit_round(1);
  const serve::FetchResult after = client.fetch();
  EXPECT_EQ(after.version, 1u);
  const std::vector<double> model = codec.decode(after.model);
  ASSERT_EQ(model.size(), 2u);
  EXPECT_DOUBLE_EQ(model[0], 1.5);
  EXPECT_DOUBLE_EQ(model[1], -2.5);
  EXPECT_EQ(client.reconnects(), 0u);

  proxy.stop();
  EXPECT_GE(proxy.connections(), 1u);
  EXPECT_EQ(proxy.refusals(), 0u);
  EXPECT_EQ(proxy.resets(), 0u);
  EXPECT_EQ(proxy.truncations(), 0u);
  EXPECT_EQ(proxy.stalls(), 0u);
  for (const SocketFault fate : proxy.scheduled_fates())
    EXPECT_EQ(fate, SocketFault::kClean);
}

TEST(TcpChaosProxy, StallsDelayButStillDeliver) {
  serve::ShardedServer server(1);
  server.initialize({0.0});
  serve::EpollFrontEnd front(&server);
  front.begin_round({0});
  TcpChaosConfig config;
  config.seed = 11;
  config.stall_probability = 1.0;  // every connection stalls...
  config.stall_min_s = 0.001;      // ...briefly
  config.stall_max_s = 0.003;
  config.reset_min_bytes = 1;  // arm within the resume handshake so the
  config.reset_window_bytes = 4;  // stall provably fires before delivery
  TcpChaosProxy proxy(front.port(), config);

  serve::ServeClient client(client_config(proxy.port()));
  EXPECT_TRUE(
      client.upload(0, 1, fed::Float32Codec::instance().encode(std::vector<double>{4.0})));
  front.commit_round(1);
  EXPECT_DOUBLE_EQ(server.global_model()[0], 4.0);
  proxy.stop();
  EXPECT_GE(proxy.stalls(), 1u);
  EXPECT_EQ(proxy.resets(), 0u);
}

TEST(TcpChaosProxy, RefusalClosesWithoutTouchingTheUpstream) {
  serve::ShardedServer server(1);
  server.initialize({0.0});
  serve::EpollFrontEnd front(&server);
  TcpChaosConfig config;
  config.seed = 3;
  config.refuse_probability = 1.0;
  TcpChaosProxy proxy(front.port(), config);

  const int fd = serve::connect_tcp("127.0.0.1", proxy.port(), 5.0);
  ASSERT_GE(fd, 0);
  std::uint8_t byte = 0;
  EXPECT_EQ(serve::read_some(fd, &byte, 1), 0);  // immediate orderly close
  ::close(fd);

  proxy.stop();
  EXPECT_EQ(proxy.refusals(), 1u);
  EXPECT_EQ(proxy.connections(), 1u);
  EXPECT_EQ(front.connections_accepted(), 0u);  // upstream never dialed
  ASSERT_EQ(proxy.scheduled_fates().size(), 1u);
  EXPECT_EQ(proxy.scheduled_fates()[0], SocketFault::kRefuse);
}

// Two clients hold live relays at once and interleave operations; a
// proxy that served one connection at a time would leave the second
// client stuck behind the first.
TEST(TcpChaosProxy, ServesConcurrentConnections) {
  serve::ShardedServer server(2);
  server.initialize({0.5});
  serve::EpollFrontEnd front(&server);
  TcpChaosConfig config;  // all probabilities zero: a pure relay
  TcpChaosProxy proxy(front.port(), config);

  serve::ServeClient first(client_config(proxy.port()));
  serve::ServeClient second(client_config(proxy.port()));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(first.fetch().version, 0u);
    EXPECT_EQ(second.fetch().version, 0u);
  }
  EXPECT_EQ(first.reconnects() + second.reconnects(), 0u);
  EXPECT_EQ(front.fetches_served(), 20u);
  proxy.stop();
  EXPECT_EQ(proxy.connections(), 2u);
}

// A long-lived proxy holds one handler per live connection, not one per
// connection ever accepted: eight sequential clients connect, handshake
// and disconnect, and once their closes land no handler is left.
TEST(TcpChaosProxy, ReapsFinishedHandlerThreads) {
  serve::ShardedServer server(1);
  server.initialize({0.0});
  serve::EpollFrontEnd front(&server);
  TcpChaosConfig config;
  TcpChaosProxy proxy(front.port(), config);
  for (int i = 0; i < 8; ++i) {
    serve::ServeClient client(client_config(proxy.port()));
    EXPECT_EQ(client.resume().version, 0u);
  }
  std::size_t live = proxy.live_handler_count();
  for (int spin = 0; spin < 400 && live > 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    live = proxy.live_handler_count();
  }
  EXPECT_EQ(live, 0u);
  EXPECT_EQ(proxy.connections(), 8u);
  EXPECT_EQ(front.sessions_resumed(), 8u);
}

TEST(TcpChaosProxy, StopIsIdempotent) {
  TcpChaosConfig config;
  TcpChaosProxy proxy(1, config);  // never dialed: no client connects
  proxy.stop();
  proxy.stop();
  EXPECT_EQ(proxy.connections(), 0u);
  EXPECT_EQ(proxy.live_handler_count(), 0u);
}

}  // namespace
}  // namespace fedpower::chaos
