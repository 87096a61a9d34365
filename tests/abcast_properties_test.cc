// Property tests for the Atomic Broadcast with Optimistic Delivery
// specification (paper Section 2.1): Termination, Global Agreement, Local
// Agreement, Global Order, Local Order - for both implementations, across
// seeds, network regimes and fault scenarios.
#include <gtest/gtest.h>

#include "abcast_harness.h"
#include "abcast/opt_abcast.h"

namespace otpdb::test {
namespace {

NetConfig calm_network() {
  NetConfig cfg;
  cfg.hiccup_prob = 0.01;
  cfg.hiccup_mean = 500 * kMicrosecond;
  return cfg;
}

NetConfig stormy_network() {
  NetConfig cfg;
  cfg.hiccup_prob = 0.30;
  cfg.hiccup_mean = 3 * kMillisecond;
  cfg.noise_max = 200 * kMicrosecond;
  return cfg;
}

NetConfig lossy_network() {
  NetConfig cfg = stormy_network();
  cfg.loss_prob = 0.05;
  cfg.retransmit_timeout = 8 * kMillisecond;
  return cfg;
}

struct Params {
  Protocol protocol;
  std::uint64_t seed;
  bool stormy;
};

class AbcastProperties : public ::testing::TestWithParam<Params> {};

TEST_P(AbcastProperties, StreamSatisfiesAllFiveProperties) {
  const Params p = GetParam();
  AbcastHarness h(p.protocol, 4, p.stormy ? stormy_network() : calm_network(), p.seed);
  h.broadcast_stream(120, 2 * kMillisecond);
  h.sim().run_until(10 * kSecond);
  h.check_properties(120);
}

TEST_P(AbcastProperties, BurstySendersSatisfyProperties) {
  const Params p = GetParam();
  AbcastHarness h(p.protocol, 5, p.stormy ? stormy_network() : calm_network(), p.seed);
  // All five sites blast 10 messages at the same instants: maximal contention.
  for (int burst = 0; burst < 10; ++burst) {
    for (SiteId s = 0; s < 5; ++s) {
      h.sim().schedule_at(burst * kMillisecond, [&h, s] {
        h.endpoint(s).broadcast(std::make_shared<NumberedPayload>(0));
      });
    }
  }
  h.sim().run_until(10 * kSecond);
  h.check_properties(50);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, AbcastProperties,
    ::testing::Values(
        Params{Protocol::optimistic, 1, false}, Params{Protocol::optimistic, 2, false},
        Params{Protocol::optimistic, 3, true}, Params{Protocol::optimistic, 4, true},
        Params{Protocol::optimistic, 5, true}, Params{Protocol::sequencer, 1, false},
        Params{Protocol::sequencer, 2, false}, Params{Protocol::sequencer, 3, true},
        Params{Protocol::sequencer, 4, true}, Params{Protocol::sequencer, 5, true}),
    [](const ::testing::TestParamInfo<Params>& param_info) {
      return std::string(protocol_name(param_info.param.protocol)) +
             (param_info.param.stormy ? "_stormy_" : "_calm_") +
             std::to_string(param_info.param.seed);
    });

TEST(AbcastLossy, PropertiesHoldUnderLossAndRetransmission) {
  for (std::uint64_t seed : {7u, 8u, 9u}) {
    AbcastHarness h(Protocol::optimistic, 4, lossy_network(), seed);
    h.broadcast_stream(80, 3 * kMillisecond);
    h.sim().run_until(20 * kSecond);
    h.check_properties(80);
  }
}

// The at-least-once transport contract: a duplication clause re-delivers a
// fifth of all frames (data, consensus, heartbeats alike) and the five
// properties must not notice - exactly-once processing is the transport
// dedup layer's job, not the protocol's.
TEST(AbcastChaos, PropertiesHoldUnderDuplication) {
  for (std::uint64_t seed : {3u, 13u, 23u}) {
    for (Protocol protocol : {Protocol::optimistic, Protocol::sequencer}) {
      AbcastHarness h(protocol, 4, calm_network(), seed);
      ChaosConfig chaos;
      chaos.plan.add(FaultPlan::duplicate(0.20, 0, 2 * kMillisecond));
      h.net().arm_chaos(chaos, Rng(seed * 31));
      h.broadcast_stream(80, 2 * kMillisecond);
      h.sim().run_until(10 * kSecond);
      h.check_properties(80);
      EXPECT_GT(h.net().chaos_stats().duplicates_injected, 0u) << "seed " << seed;
    }
  }
}

// Bounded reordering: a slice of frames gets extra per-frame delay, so
// arrival order diverges from send order on every link. Tentative orders may
// scramble (that is the paper's whole premise) but the definitive order must
// still satisfy all five properties on both protocols.
TEST(AbcastChaos, PropertiesHoldUnderReordering) {
  for (std::uint64_t seed : {4u, 14u, 24u}) {
    for (Protocol protocol : {Protocol::optimistic, Protocol::sequencer}) {
      AbcastHarness h(protocol, 4, calm_network(), seed);
      ChaosConfig chaos;
      chaos.plan.add(FaultPlan::reorder(0.15, kMillisecond, 6 * kMillisecond));
      h.net().arm_chaos(chaos, Rng(seed * 37));
      h.broadcast_stream(80, 2 * kMillisecond);
      h.sim().run_until(10 * kSecond);
      h.check_properties(80);
      EXPECT_GT(h.net().chaos_stats().reorders_injected, 0u) << "seed " << seed;
    }
  }
}

TEST(AbcastFastPath, CalmNetworkUsesFastPath) {
  AbcastHarness h(Protocol::optimistic, 4, calm_network(), 42);
  h.broadcast_stream(100, 4 * kMillisecond);
  h.sim().run_until(10 * kSecond);
  h.check_properties(100);
  const auto* opt = dynamic_cast<OptAbcast*>(&h.endpoint(0));
  ASSERT_NE(opt, nullptr);
  const auto& cs = opt->consensus_stats();
  EXPECT_GT(cs.fast_decides, 0u);
  // Under a calm network the overwhelming majority of stages take the
  // identical-proposal fast path.
  EXPECT_GT(static_cast<double>(cs.fast_decides) /
                static_cast<double>(cs.instances_decided),
            0.8);
}

TEST(AbcastFastPath, StormyNetworkFallsBackToRounds) {
  AbcastHarness h(Protocol::optimistic, 4, stormy_network(), 42);
  h.broadcast_stream(150, 300 * kMicrosecond);
  h.sim().run_until(30 * kSecond);
  h.check_properties(150);
  const auto* opt = dynamic_cast<OptAbcast*>(&h.endpoint(0));
  const auto& cs = opt->consensus_stats();
  EXPECT_GT(cs.round_decides, 0u) << "a storm should force some coordinated rounds";
}

TEST(AbcastCrash, OptAbcastSurvivesMinorityCrash) {
  AbcastHarness h(Protocol::optimistic, 4, calm_network(), 11);
  h.broadcast_stream(40, 2 * kMillisecond);
  // Crash site 3 mid-stream; the three survivors must still agree on
  // everything broadcast by anyone before/after the crash that reached them.
  h.sim().schedule_at(35 * kMillisecond, [&h] { h.net().crash(3); });
  h.broadcast_stream(40, 2 * kMillisecond, 100 * kMillisecond);  // senders 0..3 rotate
  h.sim().run_until(60 * kSecond);

  // Messages broadcast by site 3 after its crash vanish (a crashed site sends
  // nothing); survivors must agree on the identical TO sequence regardless.
  const auto& ref = h.log(0);
  for (SiteId s : {1u, 2u}) {
    const auto& log = h.log(s);
    ASSERT_EQ(log.to.size(), ref.to.size()) << "site " << s;
    for (std::size_t i = 0; i < log.to.size(); ++i) {
      EXPECT_EQ(log.to[i].first, ref.to[i].first) << "TO divergence at " << i;
      EXPECT_EQ(log.to[i].second, ref.to[i].second);
    }
    for (const auto& [id, index] : log.to) {
      EXPECT_TRUE(log.opt_pos.contains(id));
      EXPECT_LT(log.opt_pos.at(id), log.to_pos.at(id));
    }
  }
  // Everything sent by live sites is delivered. Site 3 crashed at 35ms, so
  // its 6 remaining first-batch sends and all 10 second-batch sends vanish:
  // (40 - 6) + (40 - 10) = 64.
  EXPECT_EQ(ref.to.size(), 64u);
}

TEST(AbcastCrash, SequencerSurvivesNonSequencerCrash) {
  AbcastHarness h(Protocol::sequencer, 4, calm_network(), 13);
  h.broadcast_stream(40, 2 * kMillisecond);
  h.sim().schedule_at(30 * kMillisecond, [&h] { h.net().crash(2); });
  h.broadcast_stream(40, 2 * kMillisecond, 100 * kMillisecond);
  h.sim().run_until(10 * kSecond);
  const auto& ref = h.log(0);
  for (SiteId s : {1u, 3u}) {
    const auto& log = h.log(s);
    ASSERT_EQ(log.to.size(), ref.to.size());
    for (std::size_t i = 0; i < log.to.size(); ++i) {
      EXPECT_EQ(log.to[i].first, ref.to[i].first);
    }
  }
  // Site 2 crashed at 30ms: 6 remaining first-batch sends + 10 second-batch
  // sends are lost, leaving (40 - 6) + (40 - 10) = 64 deliveries.
  EXPECT_EQ(ref.to.size(), 64u);
}

TEST(AbcastTentative, SequencerSiteTentativeOrderMatchesDefinitive) {
  // At the sequencer itself the tentative (arrival) order IS the definitive
  // order by construction.
  AbcastHarness h(Protocol::sequencer, 4, stormy_network(), 17);
  h.broadcast_stream(60, 1 * kMillisecond);
  h.sim().run_until(10 * kSecond);
  const auto& log = h.log(0);  // site 0 is the sequencer
  ASSERT_EQ(log.opt.size(), log.to.size());
  for (std::size_t i = 0; i < log.to.size(); ++i) {
    EXPECT_EQ(log.opt[i], log.to[i].first) << "sequencer tentative order diverged at " << i;
  }
}

TEST(AbcastGap, OptimisticWindowIsPositive) {
  AbcastHarness h(Protocol::optimistic, 4, calm_network(), 19);
  h.broadcast_stream(50, 2 * kMillisecond);
  h.sim().run_until(10 * kSecond);
  const auto& stats = h.endpoint(1).stats();
  EXPECT_EQ(stats.to_delivered, 50u);
  EXPECT_GT(stats.opt_to_gap_total_ns, 0);
  // The mean optimistic window should be at least the batching delay.
  EXPECT_GT(stats.opt_to_gap_total_ns / 50, kMillisecond / 2);
}

}  // namespace
}  // namespace otpdb::test
