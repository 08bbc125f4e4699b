// FederatedClient::copy_local_parameters_to against local_parameters() for
// every client in the library: on two identically seeded clones, the copy
// on one and the by-value read on the other give the same bits and leave
// the same state behind (the DP decorator draws fresh noise on every read).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "fed/byzantine.hpp"
#include "fed/dp.hpp"
#include "fed/personalize.hpp"
#include "runtime/fleet_runtime.hpp"
#include "sim/splash2.hpp"

namespace fedpower::fed {
namespace {

runtime::FleetRuntime make_fleet(bool lazy) {
  const auto suite = sim::splash2_suite();
  core::ControllerConfig config;
  config.steps_per_round = 25;
  return runtime::FleetRuntime({config}, sim::ProcessorConfig{},
                               {{suite[0], suite[1]}, {suite[2], suite[3]}},
                               /*seed=*/31, runtime::FleetOptions{1, lazy});
}

void expect_same_bits(const std::vector<double>& a,
                      const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "at index " << i;
}

/// `copied` and `returned` are the same client in two clones.
void expect_parity(const FederatedClient& copied,
                   const FederatedClient& returned) {
  std::vector<double> out = {1.0, 2.0, 3.0};  // stale contents are replaced
  copied.copy_local_parameters_to(out);
  const std::vector<double> expected = returned.local_parameters();
  ASSERT_FALSE(expected.empty());
  expect_same_bits(out, expected);
  // Same state afterwards: a second read agrees too.
  expect_same_bits(copied.local_parameters(), returned.local_parameters());
}

TEST(CopyLocalParameters, PowerController) {
  runtime::FleetRuntime a = make_fleet(false);
  runtime::FleetRuntime b = make_fleet(false);
  a.run_local_round();
  b.run_local_round();
  expect_parity(a.controller(1), b.controller(1));
}

TEST(CopyLocalParameters, LazyDeviceClientHotAndCold) {
  runtime::FleetRuntime a = make_fleet(true);
  runtime::FleetRuntime b = make_fleet(true);
  const std::vector<FederatedClient*> ca = a.clients();
  const std::vector<FederatedClient*> cb = b.clients();
  // Pristine cold: the copy materializes the device first.
  ASSERT_FALSE(a.hot(0));
  expect_parity(*ca[0], *cb[0]);
  EXPECT_TRUE(a.hot(0));
  // Hot, after training.
  ca[1]->run_local_round();
  cb[1]->run_local_round();
  expect_parity(*ca[1], *cb[1]);
  // Cold again: trained, dehydrated, then read through the proxy.
  a.dehydrate(1);
  b.dehydrate(1);
  ASSERT_FALSE(a.hot(1));
  expect_parity(*ca[1], *cb[1]);
}

TEST(CopyLocalParameters, ByzantineClientEveryAttack) {
  for (const UploadAttack attack :
       {UploadAttack::kNone, UploadAttack::kSignFlip, UploadAttack::kScale,
        UploadAttack::kStaleReplay}) {
    runtime::FleetRuntime a = make_fleet(false);
    runtime::FleetRuntime b = make_fleet(false);
    ClientFaultConfig config;
    config.attack = attack;
    config.stale_rounds = 2;
    ByzantineClient byz_a(&a.controller(0), config);
    ByzantineClient byz_b(&b.controller(0), config);
    for (int r = 0; r < 3; ++r) {
      byz_a.run_local_round();
      byz_b.run_local_round();
    }
    SCOPED_TRACE(static_cast<int>(attack));
    expect_parity(byz_a, byz_b);
  }
}

TEST(CopyLocalParameters, DpClientDrawsTheSameNoise) {
  runtime::FleetRuntime a = make_fleet(false);
  runtime::FleetRuntime b = make_fleet(false);
  DpConfig config;
  config.clip_norm = 0.5;
  config.noise_multiplier = 0.3;
  config.seed = 9;
  DpClient dp_a(&a.controller(0), config);
  DpClient dp_b(&b.controller(0), config);
  const std::vector<double> global = a.controller(0).local_parameters();
  dp_a.receive_global(global);
  dp_b.receive_global(global);
  dp_a.run_local_round();
  dp_b.run_local_round();
  expect_parity(dp_a, dp_b);
}

TEST(CopyLocalParameters, PersonalizedClient) {
  runtime::FleetRuntime a = make_fleet(false);
  runtime::FleetRuntime b = make_fleet(false);
  const std::size_t params = a.controller(0).local_parameters().size();
  PersonalizedClient pa(&a.controller(0), shared_body_mask(params, 15));
  PersonalizedClient pb(&b.controller(0), shared_body_mask(params, 15));
  const std::vector<double> global(params, 0.25);
  pa.receive_global(global);
  pb.receive_global(global);
  pa.run_local_round();
  pb.run_local_round();
  expect_parity(pa, pb);
}

}  // namespace
}  // namespace fedpower::fed
