// Topology profiles: per-site-pair delay matrices for the simulated network.
//
// The paper's testbed is a single shared-Ethernet segment (the lan profile,
// built from NetConfig's timing fields), but the optimistic-delivery bet -
// spontaneous total order is usually right - depends entirely on the
// *structure* of message latency, so geo-replication experiments need a
// medium where every site pair has its own delay floor and jitter
// distribution. A TopologyMatrix holds exactly that: EdgeParams per
// (from, to) pair plus a `switched` flag selecting the medium model.
//
//  * switched == false (lan): one shared bus. All frames serialize on a
//    single medium (Network::bus_free_at_) and a single rng stream samples
//    receiver jitter in canonical order. Every frame waits on that one global
//    bus clock, so a shared-bus cluster has no lookahead gap to exploit and
//    always runs the classic single-queue loop.
//  * switched == true (metro, wan, geo-3dc): per-sender links. Each sender
//    serializes frames on its own NIC and every (from, to) edge owns an
//    independent rng stream, so send processing depends only on sender-local
//    state. That is what lets the sharded engine process sends inline on the
//    sending shard and run per-edge channel clocks (sim/sharded_engine.h).
//
// Every built-in profile declares a symmetric matrix (edge(r,s) == edge(s,r));
// tests/net_test.cc asserts it. Lookahead contract: the conservative per-edge
// lookahead is serialization_time + edge(from,to).base_delay, a lower bound on
// (delivery - send) because waiting for the link, uniform noise and hiccup
// delays are all non-negative.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>
#include <vector>

#include "sim/simulator.h"

namespace otpdb {

/// Named latency structures selectable from NetConfig / the CLI.
enum class TopologyProfile {
  lan,      ///< shared bus, uniform NetConfig timing on every pair (default)
  metro,    ///< 3 buildings on a metro ring, switched, sub-millisecond edges
  wan,      ///< 2 regions, switched: ~0.5ms intra-region, ~40ms cross-region
  geo_3dc,  ///< 3 datacenters, switched: ~50us intra-DC, 10-35ms inter-DC
};

/// Per-(from, to) delivery parameters; mirrors NetConfig's timing fields.
struct EdgeParams {
  SimTime base_delay = 0;   ///< propagation + stack floor for this edge
  SimTime noise_max = 0;    ///< uniform receive-side noise in [0, noise_max)
  double hiccup_prob = 0.0; ///< probability of a scheduling hiccup...
  SimTime hiccup_mean = 0;  ///< ...with an extra exponential delay of this mean

  bool operator==(const EdgeParams&) const = default;
};

/// Materialized per-site-pair delay matrix for one cluster size.
struct TopologyMatrix {
  TopologyProfile profile = TopologyProfile::lan;
  std::size_t n_sites = 0;
  bool switched = false;   ///< per-sender links (vs one shared bus)
  bool symmetric = false;  ///< declared symmetric; asserted by net_test
  std::vector<EdgeParams> edges;  ///< [from * n_sites + to]

  const EdgeParams& edge(std::size_t from, std::size_t to) const {
    return edges[from * n_sites + to];
  }
  EdgeParams& edge(std::size_t from, std::size_t to) { return edges[from * n_sites + to]; }
};

/// True for the profiles with per-sender links (metro, wan, geo-3dc); only
/// these can drive the sharded engine.
bool topology_switched(TopologyProfile profile);

/// Builds the matrix for `profile` over `n_sites` sites. `lan_edge` carries
/// NetConfig's timing fields; `lan` replicates it on every pair of the
/// shared bus, and the switched profiles use their own calibrated
/// parameters.
TopologyMatrix build_topology(TopologyProfile profile, std::size_t n_sites,
                              const EdgeParams& lan_edge);

/// Canonical profile name ("lan", "metro", "wan", "geo-3dc").
const char* topology_profile_name(TopologyProfile profile);

/// Parses a profile name (accepts "geo-3dc" and "geo_3dc").
std::optional<TopologyProfile> parse_topology_profile(std::string_view name);

/// Comma-separated list of all profile names, for --help text.
const char* topology_profile_list();

}  // namespace otpdb
