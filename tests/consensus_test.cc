// Unit and fault-injection tests for the consensus layer: agreement,
// validity, integrity, fast-path behaviour, coordinator crash, straggler
// catch-up.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "abcast/consensus.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace otpdb {
namespace {

class ConsensusFixture {
 public:
  ConsensusFixture(std::size_t n, NetConfig net_config, std::uint64_t seed,
                   ConsensusConfig config = {})
      : net_(sim_, n, net_config, Rng(seed)), decisions_(n) {
    for (SiteId s = 0; s < n; ++s) {
      hosts_.push_back(std::make_unique<ConsensusHost>(sim_, net_, s, config));
      auto& mine = decisions_[s];
      hosts_[s]->set_on_decide(
          [&mine](std::uint64_t inst, const ConsensusHost::Value& v) { mine[inst] = *v; });
    }
  }

  Simulator& sim() { return sim_; }
  Network& net() { return net_; }
  ConsensusHost& host(SiteId s) { return *hosts_[s]; }
  const std::map<std::uint64_t, ConsensusHost::Sequence>& decisions(SiteId s) const {
    return decisions_[s];
  }

  /// All sites that decided `inst` must agree; returns the decided value.
  std::optional<ConsensusHost::Sequence> agreed_value(std::uint64_t inst,
                                                      std::size_t min_deciders) const {
    std::optional<ConsensusHost::Sequence> value;
    std::size_t deciders = 0;
    for (const auto& site_map : decisions_) {
      auto it = site_map.find(inst);
      if (it == site_map.end()) continue;
      ++deciders;
      if (!value) {
        value = it->second;
      } else {
        EXPECT_EQ(*value, it->second) << "agreement violated for instance " << inst;
      }
    }
    EXPECT_GE(deciders, min_deciders);
    return value;
  }

 private:
  Simulator sim_;
  Network net_;
  std::vector<std::unique_ptr<ConsensusHost>> hosts_;
  std::vector<std::map<std::uint64_t, ConsensusHost::Sequence>> decisions_;
};

NetConfig calm() {
  NetConfig cfg;
  cfg.hiccup_prob = 0.0;
  return cfg;
}

ConsensusHost::Sequence seq(std::initializer_list<std::uint64_t> seqs) {
  ConsensusHost::Sequence v;
  for (auto s : seqs) v.push_back(MsgId{0, s});
  return v;
}

TEST(Consensus, IdenticalProposalsDecideFast) {
  ConsensusFixture f(4, calm(), 1);
  for (SiteId s = 0; s < 4; ++s) f.host(s).propose(0, seq({1, 2, 3}));
  f.sim().run_until(1 * kSecond);
  const auto v = f.agreed_value(0, 4);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, seq({1, 2, 3}));
  for (SiteId s = 0; s < 4; ++s) {
    EXPECT_EQ(f.host(s).stats().fast_decides, 1u) << "site " << s;
    EXPECT_EQ(f.host(s).stats().round_decides, 0u);
  }
}

TEST(Consensus, ConflictingProposalsStillAgree) {
  ConsensusFixture f(4, calm(), 2);
  f.host(0).propose(0, seq({1, 2}));
  f.host(1).propose(0, seq({2, 1}));
  f.host(2).propose(0, seq({1, 2}));
  f.host(3).propose(0, seq({2, 1}));
  f.sim().run_until(5 * kSecond);
  const auto v = f.agreed_value(0, 4);
  ASSERT_TRUE(v.has_value());
  // Validity: the decision is one of the proposed values.
  EXPECT_TRUE(*v == seq({1, 2}) || *v == seq({2, 1}));
}

TEST(Consensus, ValidityWithSingleProposer) {
  // Only a majority proposes; the decision must equal their common value.
  ConsensusFixture f(4, calm(), 3);
  f.host(0).propose(0, seq({9}));
  f.host(1).propose(0, seq({9}));
  f.host(2).propose(0, seq({9}));
  f.sim().run_until(5 * kSecond);
  const auto v = f.agreed_value(0, 3);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, seq({9}));
}

TEST(Consensus, ManyInstancesIndependently) {
  ConsensusFixture f(3, calm(), 4);
  for (std::uint64_t inst = 0; inst < 20; ++inst) {
    for (SiteId s = 0; s < 3; ++s) f.host(s).propose(inst, seq({inst}));
  }
  f.sim().run_until(5 * kSecond);
  for (std::uint64_t inst = 0; inst < 20; ++inst) {
    const auto v = f.agreed_value(inst, 3);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, seq({inst}));
  }
}

TEST(Consensus, RecycledPayloadsHoldNoValue) {
  // Conflicting proposals take a coordinated round, whose CoordProp and
  // Decision payloads carry a Value into a Propose payload. Once every
  // message is delivered and the instance trimmed, the hosts' pools hold
  // those payloads for reuse (later instances reuse them), and none may
  // still hold its Value: each proposal is then referenced only here.
  ConsensusFixture f(4, calm(), 2);
  std::vector<ConsensusHost::Value> proposals;
  for (SiteId s = 0; s < 4; ++s) {
    proposals.push_back(f.host(s).propose(0, s % 2 == 0 ? seq({1, 2}) : seq({2, 1})));
  }
  f.sim().run_until(5 * kSecond);
  ASSERT_TRUE(f.agreed_value(0, 4).has_value());
  EXPECT_GT(f.host(0).stats().round_decides + f.host(1).stats().round_decides, 0u);
  for (std::uint64_t inst = 1; inst <= 3; ++inst) {
    for (SiteId s = 0; s < 4; ++s) f.host(s).propose(inst, seq({10 + inst}));
  }
  f.sim().run_until(10 * kSecond);
  for (SiteId s = 0; s < 4; ++s) f.host(s).trim_below(4);
  for (SiteId s = 0; s < 4; ++s) {
    EXPECT_EQ(proposals[s].use_count(), 1) << "site " << s << "'s proposal is still held";
  }
}

TEST(Consensus, CoordinatorCrashBeforeProposing) {
  // Coordinator of instance 0 round 0 is site 0; crash it before anyone
  // proposes. The remaining majority must still decide via later rounds.
  ConsensusConfig cfg;
  cfg.round_timeout = 10 * kMillisecond;
  ConsensusFixture f(4, calm(), 5, cfg);
  f.net().crash(0);
  f.host(1).propose(0, seq({4}));
  f.host(2).propose(0, seq({4}));
  f.host(3).propose(0, seq({4}));
  f.sim().run_until(10 * kSecond);
  const auto v = f.agreed_value(0, 3);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, seq({4}));
}

TEST(Consensus, CoordinatorCrashMidRoundStillSafe) {
  ConsensusConfig cfg;
  cfg.round_timeout = 10 * kMillisecond;
  cfg.fast_wait = 1 * kMillisecond;
  ConsensusFixture f(5, calm(), 6, cfg);
  // Conflicting proposals force the coordinated path.
  f.host(0).propose(0, seq({1}));
  f.host(1).propose(0, seq({2}));
  f.host(2).propose(0, seq({1}));
  f.host(3).propose(0, seq({2}));
  f.host(4).propose(0, seq({1}));
  // Crash the round-0 coordinator (site 0) shortly after it may have proposed.
  f.sim().schedule_at(3 * kMillisecond, [&f] { f.net().crash(0); });
  f.sim().run_until(30 * kSecond);
  const auto v = f.agreed_value(0, 4);
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(*v == seq({1}) || *v == seq({2}));
}

TEST(Consensus, MinorityCrashNeverBlocks) {
  ConsensusConfig cfg;
  cfg.round_timeout = 10 * kMillisecond;
  ConsensusFixture f(5, calm(), 7, cfg);
  f.net().crash(3);
  f.net().crash(4);
  for (SiteId s = 0; s < 3; ++s) f.host(s).propose(0, seq({8}));
  f.sim().run_until(10 * kSecond);
  const auto v = f.agreed_value(0, 3);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, seq({8}));
}

TEST(Consensus, NonProposerLearnsDecisionFromBroadcast) {
  ConsensusConfig cfg;
  cfg.fast_wait = 1 * kMillisecond;
  ConsensusFixture f(4, calm(), 8, cfg);
  for (SiteId s = 0; s < 3; ++s) f.host(s).propose(0, seq({5}));
  f.sim().run_until(2 * kSecond);
  // Site 3 never proposed, yet the Decision broadcast reaches it too.
  const auto v = f.agreed_value(0, 4);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, seq({5}));
}

TEST(Consensus, StragglerCatchesUpAfterRecovery) {
  ConsensusConfig cfg;
  cfg.fast_wait = 1 * kMillisecond;
  ConsensusFixture f(4, calm(), 8, cfg);
  // Site 3 is down while the others decide; every protocol message (including
  // the Decision) is lost to it.
  f.net().crash(3);
  for (SiteId s = 0; s < 3; ++s) f.host(s).propose(0, seq({5}));
  f.sim().run_until(2 * kSecond);
  EXPECT_TRUE(f.agreed_value(0, 3).has_value());
  EXPECT_FALSE(f.decisions(3).contains(0));
  // After recovery the straggler proposes; decided peers reply with the
  // decision directly.
  f.net().recover(3);
  f.host(3).propose(0, seq({99}));
  f.sim().run_until(4 * kSecond);
  const auto v = f.agreed_value(0, 4);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, seq({5}));
}

TEST(Consensus, DuplicateProposeIsRejected) {
  ConsensusFixture f(3, calm(), 9);
  f.host(0).propose(0, seq({1}));
  EXPECT_DEATH(f.host(0).propose(0, seq({2})), "duplicate propose");
}

TEST(Consensus, SixtyFourSitesDecideFast) {
  // The proposer and ack bitmasks hold exactly 64 sites.
  ConsensusFixture f(ConsensusHost::kMaxSites, calm(), 10);
  for (SiteId s = 0; s < ConsensusHost::kMaxSites; ++s) f.host(s).propose(0, seq({7, 8}));
  f.sim().run_until(1 * kSecond);
  const auto v = f.agreed_value(0, ConsensusHost::kMaxSites);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, seq({7, 8}));
  EXPECT_EQ(f.host(63).stats().fast_decides, 1u);
}

TEST(Consensus, MoreThanSixtyFourSitesAreRejected) {
  Simulator sim;
  Network net(sim, ConsensusHost::kMaxSites + 1, calm(), Rng(11));
  EXPECT_DEATH(ConsensusHost(sim, net, 0, ConsensusConfig{}), "at most 64 sites");
}

TEST(Consensus, StressRandomizedAgreement) {
  // Many instances, random proposals, random minority crash - agreement and
  // validity must hold on every decided instance.
  for (std::uint64_t seed = 100; seed < 104; ++seed) {
    Rng rng(seed);
    ConsensusConfig cfg;
    cfg.round_timeout = 15 * kMillisecond;
    NetConfig nc;
    nc.hiccup_prob = 0.2;
    nc.hiccup_mean = 2 * kMillisecond;
    ConsensusFixture f(5, nc, seed, cfg);
    const SiteId victim = static_cast<SiteId>(rng.uniform_int(0, 4));
    f.sim().schedule_at(rng.uniform_int(1, 50) * kMillisecond,
                        [&f, victim] { f.net().crash(victim); });
    for (std::uint64_t inst = 0; inst < 10; ++inst) {
      for (SiteId s = 0; s < 5; ++s) {
        const auto variant = static_cast<std::uint64_t>(rng.uniform_int(0, 1));
        f.sim().schedule_at(static_cast<SimTime>(inst) * 5 * kMillisecond,
                            [&f, s, inst, variant] {
                              if (!f.net().crashed(s)) {
                                f.host(s).propose(inst, seq({inst * 2 + variant}));
                              }
                            });
      }
    }
    f.sim().run_until(60 * kSecond);
    for (std::uint64_t inst = 0; inst < 10; ++inst) {
      const auto v = f.agreed_value(inst, 1);  // agreement among all deciders
      ASSERT_TRUE(v.has_value()) << "instance " << inst << " never decided (seed " << seed
                                 << ")";
      EXPECT_TRUE(*v == seq({inst * 2}) || *v == seq({inst * 2 + 1})) << "validity";
    }
  }
}

}  // namespace
}  // namespace otpdb
