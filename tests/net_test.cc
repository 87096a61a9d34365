// Unit tests for the simulated network and the spontaneous-order metrics.
#include <gtest/gtest.h>

#include <vector>

#include "net/network.h"
#include "net/spontaneous_order.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace otpdb {
namespace {

struct TestPayload final : Payload {
  int tag = 0;
  explicit TestPayload(int t) : tag(t) {}
};

NetConfig quiet_net() {
  NetConfig cfg;
  cfg.hiccup_prob = 0.0;  // deterministic-ish deliveries for unit tests
  cfg.noise_max = 1;      // 1ns noise to keep ordering stable
  return cfg;
}

TEST(Network, MulticastReachesAllSitesIncludingSender) {
  Simulator sim;
  Network net(sim, 4, quiet_net(), Rng(1));
  std::vector<int> received(4, 0);
  for (SiteId s = 0; s < 4; ++s) {
    net.subscribe(s, 0, [&received, s](const Message&) { ++received[s]; });
  }
  net.multicast(1, 0, std::make_shared<TestPayload>(7));
  sim.run();
  for (SiteId s = 0; s < 4; ++s) EXPECT_EQ(received[s], 1) << "site " << s;
}

TEST(Network, UnicastReachesOnlyTarget) {
  Simulator sim;
  Network net(sim, 3, quiet_net(), Rng(1));
  std::vector<int> received(3, 0);
  for (SiteId s = 0; s < 3; ++s) {
    net.subscribe(s, 0, [&received, s](const Message&) { ++received[s]; });
  }
  net.unicast(0, 2, 0, std::make_shared<TestPayload>(1));
  sim.run();
  EXPECT_EQ(received[0], 0);
  EXPECT_EQ(received[1], 0);
  EXPECT_EQ(received[2], 1);
}

TEST(Network, MessageIdsAscendPerSender) {
  Simulator sim;
  Network net(sim, 2, quiet_net(), Rng(1));
  net.subscribe(0, 0, [](const Message&) {});
  net.subscribe(1, 0, [](const Message&) {});
  const MsgId a = net.multicast(0, 0, std::make_shared<TestPayload>(1));
  const MsgId b = net.multicast(0, 0, std::make_shared<TestPayload>(2));
  const MsgId c = net.multicast(1, 0, std::make_shared<TestPayload>(3));
  EXPECT_EQ(a.sender, 0u);
  EXPECT_LT(a.seq, b.seq);
  EXPECT_EQ(c.sender, 1u);
}

TEST(Network, ChannelsAreIndependent) {
  Simulator sim;
  Network net(sim, 2, quiet_net(), Rng(1));
  int ch0 = 0, ch1 = 0;
  net.subscribe(1, 0, [&](const Message&) { ++ch0; });
  net.subscribe(1, 1, [&](const Message&) { ++ch1; });
  net.multicast(0, 0, std::make_shared<TestPayload>(1));
  net.multicast(0, 1, std::make_shared<TestPayload>(2));
  net.multicast(0, 1, std::make_shared<TestPayload>(3));
  sim.run();
  EXPECT_EQ(ch0, 1);
  EXPECT_EQ(ch1, 2);
}

TEST(Network, CrashedSiteReceivesNothing) {
  Simulator sim;
  Network net(sim, 2, quiet_net(), Rng(1));
  int received = 0;
  net.subscribe(1, 0, [&](const Message&) { ++received; });
  net.crash(1);
  net.multicast(0, 0, std::make_shared<TestPayload>(1));
  sim.run();
  EXPECT_EQ(received, 0);
}

TEST(Network, CrashedSiteSendsNothing) {
  Simulator sim;
  Network net(sim, 2, quiet_net(), Rng(1));
  int received = 0;
  net.subscribe(1, 0, [&](const Message&) { ++received; });
  net.crash(0);
  net.multicast(0, 0, std::make_shared<TestPayload>(1));
  sim.run();
  EXPECT_EQ(received, 0);
}

TEST(Network, CrashMidFlightDropsDelivery) {
  Simulator sim;
  Network net(sim, 2, quiet_net(), Rng(1));
  int received = 0;
  net.subscribe(1, 0, [&](const Message&) { ++received; });
  net.multicast(0, 0, std::make_shared<TestPayload>(1));
  net.crash(1);  // after send, before delivery
  sim.run();
  EXPECT_EQ(received, 0);
}

TEST(Network, RecoveredSiteReceivesAgain) {
  Simulator sim;
  Network net(sim, 2, quiet_net(), Rng(1));
  int received = 0;
  net.subscribe(1, 0, [&](const Message&) { ++received; });
  net.crash(1);
  net.multicast(0, 0, std::make_shared<TestPayload>(1));
  sim.run();
  net.recover(1);
  net.multicast(0, 0, std::make_shared<TestPayload>(2));
  sim.run();
  EXPECT_EQ(received, 1);
}

TEST(Network, PartitionParksCrossGroupTraffic) {
  Simulator sim;
  Network net(sim, 4, quiet_net(), Rng(1));
  std::vector<int> received(4, 0);
  for (SiteId s = 0; s < 4; ++s) {
    net.subscribe(s, 0, [&received, s](const Message&) { ++received[s]; });
  }
  net.partition({0, 1}, {2, 3});
  net.multicast(0, 0, std::make_shared<TestPayload>(1));
  sim.run();
  EXPECT_EQ(received[0], 1);
  EXPECT_EQ(received[1], 1);
  EXPECT_EQ(received[2], 0) << "cross-group traffic parked while split";
  EXPECT_EQ(received[3], 0);

  // Healing releases the parked message (reliable channels) and new traffic
  // flows normally.
  net.heal_partition();
  net.multicast(0, 0, std::make_shared<TestPayload>(2));
  sim.run();
  EXPECT_EQ(received[2], 2);
  EXPECT_EQ(received[3], 2);
}

TEST(Network, CrashDuringPartitionDropsParkedMessages) {
  Simulator sim;
  Network net(sim, 2, quiet_net(), Rng(1));
  int received = 0;
  net.subscribe(1, 0, [&](const Message&) { ++received; });
  net.subscribe(0, 0, [](const Message&) {});
  net.partition({0}, {1});
  net.multicast(0, 0, std::make_shared<TestPayload>(1));
  sim.run();
  net.crash(1);  // the parked message's receiver crashes before the heal
  net.heal_partition();
  sim.run();
  EXPECT_EQ(received, 0) << "a crash loses messages; only partitions are reliable";
}

TEST(Network, LossDelaysButDelivers) {
  Simulator sim;
  NetConfig cfg = quiet_net();
  cfg.loss_prob = 0.5;
  cfg.retransmit_timeout = 5 * kMillisecond;
  Network net(sim, 2, cfg, Rng(99));
  int received = 0;
  SimTime max_latency = 0;
  net.subscribe(1, 0, [&](const Message&) {
    ++received;
    max_latency = std::max(max_latency, sim.now());
  });
  net.subscribe(0, 0, [](const Message&) {});
  for (int i = 0; i < 200; ++i) net.multicast(0, 0, std::make_shared<TestPayload>(i));
  sim.run();
  EXPECT_EQ(received, 200);          // reliable despite loss
  EXPECT_GT(max_latency, 5 * kMillisecond);  // some deliveries were retransmitted
}

TEST(Network, BusSerializationSpacesDeliveries) {
  Simulator sim;
  NetConfig cfg = quiet_net();
  cfg.serialization_time = 100 * kMicrosecond;
  cfg.noise_max = 1;
  Network net(sim, 2, cfg, Rng(1));
  std::vector<SimTime> arrivals;
  net.subscribe(1, 0, [&](const Message&) { arrivals.push_back(sim.now()); });
  net.subscribe(0, 0, [](const Message&) {});
  // Two frames sent at the same instant occupy the bus back to back.
  net.multicast(0, 0, std::make_shared<TestPayload>(1));
  net.multicast(0, 0, std::make_shared<TestPayload>(2));
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_GE(arrivals[1] - arrivals[0], 90 * kMicrosecond);
}

TEST(Network, ArrivalRecordingCapturesPerSiteOrder) {
  Simulator sim;
  Network net(sim, 3, quiet_net(), Rng(1));
  for (SiteId s = 0; s < 3; ++s) net.subscribe(s, 0, [](const Message&) {});
  net.record_arrivals(0);
  net.multicast(0, 0, std::make_shared<TestPayload>(1));
  net.multicast(1, 0, std::make_shared<TestPayload>(2));
  sim.run();
  for (SiteId s = 0; s < 3; ++s) EXPECT_EQ(net.arrival_logs()[s].size(), 2u);
}

TEST(SpontaneousOrder, PerfectAgreement) {
  const MsgId a{0, 0}, b{1, 0}, c{2, 0};
  std::vector<std::vector<MsgId>> logs = {{a, b, c}, {a, b, c}, {a, b, c}};
  const auto stats = analyze_spontaneous_order(logs);
  EXPECT_EQ(stats.messages, 3u);
  EXPECT_EQ(stats.same_position, 3u);
  EXPECT_DOUBLE_EQ(stats.position_agreement(), 1.0);
  EXPECT_DOUBLE_EQ(stats.pair_agreement(), 1.0);
}

TEST(SpontaneousOrder, SingleSwapDetected) {
  const MsgId a{0, 0}, b{1, 0}, c{2, 0};
  std::vector<std::vector<MsgId>> logs = {{a, b, c}, {b, a, c}};
  const auto stats = analyze_spontaneous_order(logs);
  EXPECT_EQ(stats.messages, 3u);
  EXPECT_EQ(stats.same_position, 1u);  // only c is at the same rank everywhere
  EXPECT_LT(stats.pair_agreement(), 1.0);
}

TEST(SpontaneousOrder, MissingMessagesExcluded) {
  const MsgId a{0, 0}, b{1, 0}, c{2, 0};
  std::vector<std::vector<MsgId>> logs = {{a, b, c}, {a, b}};
  const auto stats = analyze_spontaneous_order(logs);
  EXPECT_EQ(stats.messages, 2u);  // c is not common
  EXPECT_EQ(stats.same_position, 2u);
}

TEST(SpontaneousOrder, EmptyLogs) {
  const auto stats = analyze_spontaneous_order({});
  EXPECT_EQ(stats.messages, 0u);
  EXPECT_DOUBLE_EQ(stats.position_agreement(), 1.0);
}

TEST(SpontaneousOrder, DuplicatedAndMissingMessageDoesNotAbort) {
  // Regression: `b` is retransmitted at site 0 (logged twice) and lost at
  // site 1. Counting occurrences instead of distinct sites made it pass the
  // "seen at every site" filter (2 occurrences == 2 sites) and then hit the
  // mid-metric CHECK abort when site 1's rank pass never saw it. Per-site
  // counting must exclude it; the rest of the metric is unaffected.
  const MsgId a{0, 0}, b{1, 0}, c{2, 0};
  std::vector<std::vector<MsgId>> logs = {{a, b, b, c}, {a, c}};
  const auto stats = analyze_spontaneous_order(logs);
  EXPECT_EQ(stats.messages, 2u);  // a and c; the duplicated+missing b is out
  EXPECT_EQ(stats.same_position, 2u);
  EXPECT_DOUBLE_EQ(stats.position_agreement(), 1.0);
}

TEST(SpontaneousOrder, RetransmissionRanksByFirstOccurrence) {
  // A message logged twice at one site (received at every site) stays common;
  // its rank at that site is its *first* occurrence, and the duplicate must
  // neither abort the analysis nor shift later ranks.
  const MsgId a{0, 0}, b{1, 0}, c{2, 0};
  std::vector<std::vector<MsgId>> logs = {{a, b, a, c}, {a, b, c}, {a, b, c}};
  const auto stats = analyze_spontaneous_order(logs);
  EXPECT_EQ(stats.messages, 3u);
  EXPECT_EQ(stats.same_position, 3u) << "dedup keeps ranks aligned across sites";
  EXPECT_DOUBLE_EQ(stats.pair_agreement(), 1.0);
}

TEST(SpontaneousOrder, HighJitterLowersAgreement) {
  // End-to-end: blast messages through a jittery segment and confirm the
  // agreement metric reacts.
  auto run = [](SimTime gap, double hiccup_prob) {
    Simulator sim;
    NetConfig cfg;
    cfg.hiccup_prob = hiccup_prob;
    cfg.hiccup_mean = 2 * kMillisecond;
    Network net(sim, 4, cfg, Rng(7));
    for (SiteId s = 0; s < 4; ++s) net.subscribe(s, 0, [](const Message&) {});
    net.record_arrivals(0);
    SimTime t = 0;
    for (int i = 0; i < 200; ++i) {
      const SiteId sender = static_cast<SiteId>(i % 4);
      sim.schedule_at(t, [&net, sender] {
        net.multicast(sender, 0, std::make_shared<TestPayload>(0));
      });
      t += gap;
    }
    sim.run();
    return analyze_spontaneous_order(net.arrival_logs()).position_agreement();
  };
  const double calm = run(5 * kMillisecond, 0.02);
  const double stormy = run(100 * kMicrosecond, 0.30);
  EXPECT_GT(calm, stormy);
  EXPECT_GT(calm, 0.9);
}

// -- topology profiles -------------------------------------------------------

TEST(Topology, ProfileTablesAreSymmetricWhereDeclared) {
  const EdgeParams lan_edge{50 * kMicrosecond, 20 * kMicrosecond, 0.06, 310 * kMicrosecond};
  for (TopologyProfile profile : {TopologyProfile::lan, TopologyProfile::metro,
                                  TopologyProfile::wan, TopologyProfile::geo_3dc}) {
    const TopologyMatrix m = build_topology(profile, 7, lan_edge);
    EXPECT_TRUE(m.symmetric) << topology_profile_name(profile);
    EXPECT_EQ(m.switched, topology_switched(profile)) << topology_profile_name(profile);
    for (std::size_t i = 0; i < 7; ++i) {
      for (std::size_t j = 0; j < 7; ++j) {
        EXPECT_TRUE(m.edge(i, j) == m.edge(j, i))
            << topology_profile_name(profile) << " edge (" << i << "," << j << ")";
      }
    }
  }
}

TEST(Topology, ProfileNamesRoundTrip) {
  for (TopologyProfile profile : {TopologyProfile::lan, TopologyProfile::metro,
                                  TopologyProfile::wan, TopologyProfile::geo_3dc}) {
    const auto parsed = parse_topology_profile(topology_profile_name(profile));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, profile);
  }
  EXPECT_EQ(parse_topology_profile("geo_3dc"), TopologyProfile::geo_3dc);
  EXPECT_FALSE(parse_topology_profile("ring").has_value());
}

TEST(Topology, SwitchedMulticastReachesAllSites) {
  Simulator sim;
  NetConfig cfg;  // full jitter defaults
  cfg.topology = TopologyProfile::geo_3dc;
  Network net(sim, 6, cfg, Rng(3));
  ASSERT_TRUE(net.switched());
  std::vector<int> received(6, 0);
  for (SiteId s = 0; s < 6; ++s) {
    net.subscribe(s, 0, [&received, s](const Message&) { ++received[s]; });
  }
  net.multicast(2, 0, std::make_shared<TestPayload>(1));
  net.unicast(0, 5, 0, std::make_shared<TestPayload>(2));
  sim.run();
  for (SiteId s = 0; s < 6; ++s) EXPECT_EQ(received[s], s == 5 ? 2 : 1) << "site " << s;
}

/// The conservative lookahead contract the channel-clock engine relies on:
/// for EVERY delivery - under uniform noise, hiccup tails, and link queueing -
/// (delivery time - send time) >= lookahead(from, to), strictly.
TEST(Topology, PerEdgeLookaheadIsADeliveryLowerBoundUnderJitter) {
  for (TopologyProfile profile : {TopologyProfile::metro, TopologyProfile::wan,
                                  TopologyProfile::geo_3dc}) {
    Simulator sim;
    NetConfig cfg;  // full jitter defaults, plus loss retransmission delays
    cfg.topology = profile;
    cfg.loss_prob = 0.02;
    Network net(sim, 5, cfg, Rng(99));
    std::vector<SimTime> send_time;  // by multicast issue order == MsgId.seq per sender
    std::uint64_t checked = 0;
    for (SiteId to = 0; to < 5; ++to) {
      net.subscribe(to, 0, [&, to](const Message& msg) {
        const SimTime sent = send_time[msg.id.sender * 40 + msg.id.seq];
        EXPECT_GE(sim.now() - sent, net.lookahead(msg.id.sender, to))
            << topology_profile_name(profile) << " edge (" << msg.id.sender << "," << to
            << ")";
        ++checked;
      });
    }
    send_time.assign(5 * 40, 0);
    SimTime t = 0;
    for (int i = 0; i < 40; ++i) {
      for (SiteId from = 0; from < 5; ++from) {
        sim.schedule_at(t, [&net, &send_time, &sim, from, i] {
          send_time[from * 40 + i] = sim.now();
          net.multicast(from, 0, std::make_shared<TestPayload>(i));
        });
      }
      t += 700 * kMicrosecond;  // bursts overlap on the sender links
    }
    sim.run();
    EXPECT_EQ(checked, 5u * 40u * 5u) << topology_profile_name(profile);
  }
}

TEST(Topology, SwitchedPartitionParksAndHealReplays) {
  Simulator sim;
  NetConfig cfg;
  cfg.topology = TopologyProfile::metro;
  Network net(sim, 4, cfg, Rng(11));
  std::vector<int> received(4, 0);
  for (SiteId s = 0; s < 4; ++s) {
    net.subscribe(s, 0, [&received, s](const Message&) { ++received[s]; });
  }
  net.partition({0, 1}, {2, 3});
  net.multicast(0, 0, std::make_shared<TestPayload>(1));
  sim.run();
  EXPECT_EQ(received[0], 1);
  EXPECT_EQ(received[1], 1);
  EXPECT_EQ(received[2], 0);  // parked across the cut
  EXPECT_EQ(received[3], 0);
  net.heal_partition();
  sim.run();
  EXPECT_EQ(received[2], 1);  // reliable channels: replayed after healing
  EXPECT_EQ(received[3], 1);
}

}  // namespace
}  // namespace otpdb
