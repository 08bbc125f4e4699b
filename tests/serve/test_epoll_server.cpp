// EpollFrontEnd over real loopback sockets (DESIGN.md §12): uplink
// routing + acks, fetch replies, the oversized/zero-length, zero-weight
// and truncated frame police, QuorumError propagation through the command queue, and
// identical committed models at 1/2/4 workers.
#include "serve/epoll_server.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "fed/codec.hpp"
#include "fed/federation.hpp"
#include "raw_client.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"

namespace fedpower::serve {
namespace {

using testkit::eventually;
using testkit::fetch_frame;
using testkit::RawClient;
using testkit::upload_and_ack;

TEST(EpollFrontEnd, UplinksAreAckedRoutedAndCommitted) {
  ShardedServer server(2);
  server.initialize({0.0, 0.0});
  EpollFrontEnd front(&server);
  front.begin_round({0, 1});
  RawClient a(front.port());
  RawClient b(front.port());
  upload_and_ack(a, 0, 0, {1.0, 2.0});
  upload_and_ack(b, 1, 0, {3.0, 6.0});
  const fed::RoundResult result = front.commit_round(2);
  EXPECT_EQ(result.effective_clients(), 2u);
  EXPECT_DOUBLE_EQ(server.global_model()[0], 2.0);
  EXPECT_DOUBLE_EQ(server.global_model()[1], 4.0);
  EXPECT_EQ(front.connections_accepted(), 2u);
  EXPECT_EQ(front.uplinks_received(), 2u);
  EXPECT_EQ(front.protocol_errors(), 0u);
  EXPECT_EQ(front.truncated_frames(), 0u);
}

TEST(EpollFrontEnd, FetchRepliesWithVersionAndGlobalModel) {
  ShardedServer server(1);
  server.initialize({1.5, -2.5});
  EpollFrontEnd front(&server);
  front.begin_round({0});
  RawClient client(front.port());
  upload_and_ack(client, 0, 0, {3.5, -4.5});
  front.commit_round(1);
  client.send_bytes(fetch_frame());
  std::uint8_t direction = 0xFF;
  const std::vector<std::uint8_t> reply = client.recv_frame(direction);
  EXPECT_EQ(direction, 1);
  ASSERT_GE(reply.size(), 8u);
  EXPECT_EQ(load_u64_le(reply.data()), 1u);  // version after one commit
  const std::vector<double> model = fed::Float32Codec::instance().decode(
      {reply.data() + 8, reply.size() - 8});
  ASSERT_EQ(model.size(), 2u);
  EXPECT_DOUBLE_EQ(model[0], 3.5);
  EXPECT_DOUBLE_EQ(model[1], -4.5);
  EXPECT_EQ(front.fetches_served(), 1u);
  // A second fetch at the same version is served from the cached bytes.
  client.send_bytes(fetch_frame());
  const std::vector<std::uint8_t> again = client.recv_frame(direction);
  EXPECT_EQ(again, reply);
  EXPECT_EQ(front.fetches_served(), 2u);
}

TEST(EpollFrontEnd, OversizedAndZeroLengthFramesCloseTheConnection) {
  ShardedServer server(1);
  server.initialize({0.0});
  EpollFrontEnd front(&server);
  {
    RawClient client(front.port());
    client.send_bytes(std::vector<std::uint8_t>{0xFF, 0xFF, 0xFF, 0xFF});
    EXPECT_TRUE(client.peer_closed());
  }
  EXPECT_TRUE(eventually([&] { return front.protocol_errors() == 1; }));
  {
    RawClient client(front.port());
    client.send_bytes(std::vector<std::uint8_t>{0x00, 0x00, 0x00, 0x00});
    EXPECT_TRUE(client.peer_closed());
  }
  EXPECT_TRUE(eventually([&] { return front.protocol_errors() == 2; }));
  EXPECT_EQ(front.truncated_frames(), 0u);
  EXPECT_EQ(front.uplinks_received(), 0u);
}

TEST(EpollFrontEnd, ZeroWeightUplinkIsAProtocolError) {
  // A sample-weighted round whose uploads all weigh 0 has no weight to
  // divide by, so the wire refuses the frame before any shard sees it.
  ServeConfig config;
  config.aggregation = fed::AggregationMode::kSampleWeighted;
  ShardedServer server(1, config);
  server.initialize({0.0});
  EpollFrontEnd front(&server);
  front.begin_round({0});
  {
    RawClient client(front.port());
    UplinkHeader header;
    header.client = 0;
    header.weight = 0;
    client.send_bytes(encode_frame(
        kUplinkDirection,
        encode_uplink(header, fed::Float32Codec::instance().encode(
                                  std::vector<double>{7.0}))));
    EXPECT_TRUE(client.peer_closed());
  }
  EXPECT_TRUE(eventually([&] { return front.protocol_errors() == 1; }));
  EXPECT_EQ(front.uplinks_received(), 0u);
  // The server keeps serving: a weighted upload commits normally.
  RawClient client(front.port());
  upload_and_ack(client, 0, 0, {3.0});
  front.commit_round(1);
  EXPECT_DOUBLE_EQ(server.global_model()[0], 3.0);
  front.stop();
  EXPECT_EQ(server.stats().uplinks_accepted, 1u);
  EXPECT_EQ(server.client_record(0).accepted, 1u);
}

TEST(EpollFrontEnd, ClientDyingMidFrameCountsTruncated) {
  ShardedServer server(1);
  server.initialize({0.0});
  EpollFrontEnd front(&server);
  {
    RawClient client(front.port());
    // Advertise a 10-byte frame, deliver only a direction byte + 1, die.
    client.send_bytes(std::vector<std::uint8_t>{0x0A, 0x00, 0x00, 0x00,
                                                0x00, 0x01});
  }  // destructor closes the socket mid-frame
  EXPECT_TRUE(eventually([&] { return front.truncated_frames() == 1; }));
  EXPECT_EQ(front.protocol_errors(), 0u);
}

TEST(EpollFrontEnd, QuorumErrorCrossesTheCommandQueue) {
  ShardedServer server(2);
  server.initialize({5.0});
  EpollFrontEnd front(&server);
  front.begin_round({0, 1});
  RawClient a(front.port());
  upload_and_ack(a, 0, 0, {1.0});
  EXPECT_THROW(front.commit_round(2), fed::QuorumError);
  EXPECT_DOUBLE_EQ(server.global_model()[0], 5.0);
  // The front end keeps serving: the next round commits normally.
  front.begin_round({0, 1});
  RawClient b(front.port());
  RawClient c(front.port());
  upload_and_ack(b, 0, 0, {1.0});
  upload_and_ack(c, 1, 0, {3.0});
  front.commit_round(2);
  EXPECT_DOUBLE_EQ(server.global_model()[0], 2.0);
}

TEST(EpollFrontEnd, CommittedModelIsIdenticalAtAnyWorkerCount) {
  std::vector<std::vector<double>> globals;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    ServeConfig config;
    config.workers = workers;
    ShardedServer server(8, config);
    server.initialize({0.0, 0.0, 0.0});
    EpollFrontEnd front(&server);
    for (std::uint64_t round = 0; round < 3; ++round) {
      front.begin_round({0, 1, 2, 3, 4, 5, 6, 7});
      std::vector<std::unique_ptr<RawClient>> clients;
      for (std::uint32_t i = 0; i < 8; ++i)
        clients.push_back(std::make_unique<RawClient>(front.port()));
      // Connect order != upload order: reverse to stress shard routing.
      for (std::uint32_t i = 8; i-- > 0;) {
        const double v = static_cast<double>(i + 1) * 0.25;
        upload_and_ack(*clients[i], i, round, {v, -v, v * 2.0});
      }
      front.commit_round(8);
    }
    globals.push_back(server.global_model());
  }
  EXPECT_EQ(globals[0], globals[1]);  // exact, not approximate
  EXPECT_EQ(globals[0], globals[2]);
}

TEST(EpollFrontEndDeathTest, RequiresAnInitializedServer) {
  EXPECT_DEATH(
      {
        ShardedServer s(1);
        EpollFrontEnd front(&s);
      },
      "precondition");
  EXPECT_DEATH(EpollFrontEnd(nullptr), "precondition");
}

}  // namespace
}  // namespace fedpower::serve
