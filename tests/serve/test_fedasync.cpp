// FedAsync on the serve path (DESIGN.md §12): a throughput-mode
// ShardedServer driven by a tick clock reproduces the retired
// single-process FedAsync driver bit for bit (the golden below was
// recorded from it), keeps its staleness contract — power 0 ignores
// staleness, zero merges report a mean staleness of exactly 0 across a
// restore, an upload trained on a stale base after a lost uplink is
// discounted by that staleness — and shards large merges across an
// executor without changing a bit of the model or of the SRVR section.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "ckpt/binary_io.hpp"
#include "fed/codec.hpp"
#include "fed/federation.hpp"
#include "fed/transport.hpp"
#include "runtime/thread_pool.hpp"

namespace fedpower::serve {
namespace {

std::vector<std::uint8_t> enc(const std::vector<double>& params) {
  return fed::Float32Codec::instance().encode(params);
}

/// Adds its fixed delta to every parameter each local round.
class DriftClient final : public fed::FederatedClient {
 public:
  explicit DriftClient(double delta) : delta_(delta) {}
  void receive_global(std::span<const double> params) override {
    params_.assign(params.begin(), params.end());
  }
  std::vector<double> local_parameters() const override { return params_; }
  void run_local_round() override {
    for (double& p : params_) p += delta_;
  }

 private:
  double delta_;
  std::vector<double> params_;
};

/// Throws TransportError on the chosen transfer indices (every call
/// counts, downlinks included).
class DroppingTransport final : public fed::Transport {
 public:
  explicit DroppingTransport(std::vector<std::size_t> drop_calls)
      : drop_calls_(std::move(drop_calls)) {}
  std::vector<std::uint8_t> transfer(
      fed::Direction direction, std::vector<std::uint8_t> payload) override {
    const std::size_t call = calls_++;
    for (const std::size_t drop : drop_calls_)
      if (call == drop) throw fed::TransportError("scripted drop");
    return inner_.transfer(direction, std::move(payload));
  }
  const fed::TrafficStats& stats() const noexcept override {
    return inner_.stats();
  }

 private:
  fed::InProcessTransport inner_;
  std::vector<std::size_t> drop_calls_;
  std::size_t calls_ = 0;
};

/// The FedAsync tick clock: client c completes a local round every
/// periods[c] ticks. Each tick the due clients train on the model they last
/// fetched; then, in index order, each uploads (the server merges it at
/// drain) and fetches the new global, recording the version as its base. A
/// lost upload never reaches the server; a lost fetch leaves the client on
/// its stale base.
void run_ticks(ShardedServer& server,
               const std::vector<fed::FederatedClient*>& clients,
               const std::vector<std::size_t>& periods,
               fed::Transport& transport, std::size_t ticks) {
  const fed::ModelCodec& codec = server.codec();
  std::vector<std::uint64_t> base_version(clients.size(), 0);
  const auto fetch = [&](std::size_t c) {
    try {
      clients[c]->receive_global(codec.decode(transport.transfer(
          fed::Direction::kDownlink, codec.encode(server.global_model()))));
      base_version[c] = server.version();
    } catch (const fed::TransportError&) {
      // Lost fetch: the client trains on from its stale base.
    }
  };
  for (std::size_t c = 0; c < clients.size(); ++c) fetch(c);
  for (std::size_t tick = 1; tick <= ticks; ++tick) {
    std::vector<std::size_t> due;
    for (std::size_t c = 0; c < clients.size(); ++c)
      if (tick % periods[c] == 0) due.push_back(c);
    for (const std::size_t c : due) clients[c]->run_local_round();
    for (const std::size_t c : due) {
      try {
        server.submit(c, base_version[c],
                      transport.transfer(
                          fed::Direction::kUplink,
                          codec.encode(clients[c]->local_parameters())),
                      1.0);
      } catch (const fed::TransportError&) {
        continue;  // lost upload: no merge, and the client keeps its base
      }
      server.drain();
      fetch(c);
    }
  }
}

ServeConfig throughput(double mixing_rate, double staleness_power) {
  ServeConfig config;
  config.mode = CommitMode::kThroughput;
  config.mixing_rate = mixing_rate;
  config.staleness_power = staleness_power;
  return config;
}

TEST(FedAsync, ThroughputServerReproducesTheFedAsyncGolden) {
  // Recorded from the single-process FedAsync driver this server replaced:
  // deltas {1, -0.5, 2.5}, periods {1, 2, 3}, mixing 0.4, power 1, 12
  // ticks, from {0.25, -1.5, 3}.
  DriftClient a(1.0);
  DriftClient b(-0.5);
  DriftClient c(2.5);
  fed::InProcessTransport transport;
  ShardedServer server(3, throughput(0.4, 1.0));
  server.initialize({0.25, -1.5, 3.0});
  run_ticks(server, {&a, &b, &c}, {1, 2, 3}, transport, 12);

  const std::vector<std::uint64_t> golden{
      0x400afd2b3ae95097ULL, 0x3ff9fa566f5d6abbULL, 0x40187e95a6feed0aULL};
  ASSERT_EQ(server.global_model().size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(server.global_model()[i]),
              golden[i])
        << "coordinate " << i;
  EXPECT_EQ(server.stats().merges, 22u);
  EXPECT_EQ(server.version(), 22u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(server.stats().max_staleness),
            0x4014000000000000ULL);  // 5
  EXPECT_EQ(std::bit_cast<std::uint64_t>(server.stats().mean_staleness),
            0x3ffdd1745d1745d1ULL);  // 41 / 22
}

TEST(FedAsync, ZeroStalenessPowerIgnoresStaleness) {
  DriftClient fast(0.0);
  DriftClient slow(10.0);
  fed::InProcessTransport transport;
  ShardedServer server(2, throughput(0.5, 0.0));
  server.initialize({0.0});
  run_ticks(server, {&fast, &slow}, {1, 5}, transport, 5);
  // The slow upload is 5 versions stale, but its weight stays 0.5: the
  // 10-unit jump lands at 5.
  EXPECT_DOUBLE_EQ(server.stats().max_staleness, 5.0);
  EXPECT_DOUBLE_EQ(server.global_model()[0], 5.0);
}

TEST(FedAsync, ZeroMergesLeaveMeanStalenessZeroAcrossRestore) {
  // Frames arrive but none is mergeable (corrupt, non-finite): the mean
  // must be exactly 0, never 0/0, and stay so after a snapshot round trip.
  ShardedServer server(2, throughput(0.5, 1.0));
  server.initialize({1.0, 2.0});
  server.submit(0, 0, std::vector<std::uint8_t>{0xAB}, 1.0);
  server.submit(1, 3, enc({std::numeric_limits<double>::quiet_NaN(), 0.0}),
                1.0);
  server.drain();
  EXPECT_EQ(server.stats().merges, 0u);
  EXPECT_EQ(server.stats().mean_staleness, 0.0);
  EXPECT_EQ(server.stats().max_staleness, 0.0);
  ckpt::Writer out;
  server.save_state(out);
  ShardedServer restored(2, throughput(0.5, 1.0));
  ckpt::Reader in(out.data());
  restored.restore_state(in);
  EXPECT_EQ(restored.stats().merges, 0u);
  EXPECT_EQ(restored.stats().mean_staleness, 0.0);
  EXPECT_EQ(restored.stats().max_staleness, 0.0);
}

TEST(FedAsync, UploadAfterALostUplinkIsDiscountedByItsStaleness) {
  // Transfer order: init downlinks 0 and 1, then an up/down pair per
  // completion. The slow client's first upload (call 8: tick 3, after the
  // fast client's pair) is lost, so it keeps base version 0 and trains on.
  // Its retry at tick 6 lands 6 fast merges later.
  DriftClient fast(0.0);
  DriftClient slow(7.0);
  DroppingTransport transport({8});
  ShardedServer server(2, throughput(0.5, 1.0));
  server.initialize({0.0});
  run_ticks(server, {&fast, &slow}, {1, 3}, transport, 6);
  EXPECT_EQ(server.stats().merges, 7u);  // 6 fast + the slow retry
  EXPECT_DOUBLE_EQ(server.stats().max_staleness, 6.0);
  // Two local rounds from 0 give 14; weight 0.5 / (1 + 6) brings the
  // global from 0 to 1.
  EXPECT_DOUBLE_EQ(server.global_model()[0], 1.0);
}

// A model large enough that merge_async splits its blend across the
// executor, merged through the same upload sequence with or without one.
struct WideRun {
  std::vector<double> global;
  std::vector<std::uint8_t> snapshot;
};

WideRun wide_merges(util::ParallelFor executor) {
  const std::size_t size = fed::kParallelAggregationMinWork;
  ServeConfig config = throughput(0.4, 1.0);
  config.workers = 2;
  ShardedServer server(3, config);
  server.set_executor(std::move(executor));
  std::vector<double> global(size);
  for (std::size_t i = 0; i < size; ++i)
    global[i] = 0.001 * static_cast<double>(i % 97) - 0.05;
  server.initialize(global);
  for (std::size_t step = 0; step < 6; ++step) {
    const std::size_t client = step % 3;
    std::vector<double> local(size);
    for (std::size_t i = 0; i < size; ++i)
      local[i] = global[i] + 0.01 * static_cast<double>((i + step) % 13);
    server.submit(client, step / 2, enc(local), 1.0);
    server.drain();
  }
  ckpt::Writer out;
  server.save_state(out);
  return {server.global_model(), out.take()};
}

TEST(FedAsync, ShardedMergeMatchesSerialBitForBit) {
  runtime::ThreadPool pool(4);
  const WideRun serial = wide_merges({});
  const WideRun sharded = wide_merges(pool.executor());
  ASSERT_EQ(serial.global.size(), fed::kParallelAggregationMinWork);
  for (std::size_t i = 0; i < serial.global.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(serial.global[i]),
              std::bit_cast<std::uint64_t>(sharded.global[i]))
        << "coordinate " << i;
  EXPECT_EQ(serial.snapshot, sharded.snapshot);
}

}  // namespace
}  // namespace fedpower::serve
