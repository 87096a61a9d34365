#include "net/topology.h"

#include "util/assert.h"

namespace otpdb {

namespace {

TopologyMatrix uniform(TopologyProfile profile, std::size_t n, const EdgeParams& edge) {
  TopologyMatrix m;
  m.profile = profile;
  m.n_sites = n;
  m.switched = topology_switched(profile);
  m.symmetric = true;
  m.edges.assign(n * n, edge);
  return m;
}

/// Grouped profile: sites are assigned to `groups` clusters; `group_of(s)`
/// picks the cluster, `inter(a, b)` the cross-cluster edge parameters.
template <typename GroupOf, typename Inter>
TopologyMatrix grouped(TopologyProfile profile, std::size_t n, const EdgeParams& intra,
                       GroupOf group_of, Inter inter) {
  TopologyMatrix m = uniform(profile, n, intra);
  for (std::size_t from = 0; from < n; ++from) {
    for (std::size_t to = 0; to < n; ++to) {
      const unsigned a = group_of(from);
      const unsigned b = group_of(to);
      if (a != b) m.edge(from, to) = inter(a, b);
    }
  }
  return m;
}

}  // namespace

bool topology_switched(TopologyProfile profile) { return profile != TopologyProfile::lan; }

TopologyMatrix build_topology(TopologyProfile profile, std::size_t n_sites,
                              const EdgeParams& lan_edge) {
  OTPDB_CHECK(n_sites >= 1);
  switch (profile) {
    case TopologyProfile::lan:
      // NetConfig's timing on every pair of the shared bus: the calibrated
      // Figure-1 segment of the paper's testbed.
      return uniform(profile, n_sites, lan_edge);

    case TopologyProfile::metro: {
      // Three buildings on a metro ring (site s is in building s % 3):
      // switched fabric, one-hop edges inside a building, two fiber hops
      // between buildings. Sub-millisecond everywhere - the optimistic window
      // still mostly closes before TO-delivery.
      const EdgeParams intra{120 * kMicrosecond, 30 * kMicrosecond, 0.04, 400 * kMicrosecond};
      const EdgeParams inter{400 * kMicrosecond, 60 * kMicrosecond, 0.05, 600 * kMicrosecond};
      return grouped(profile, n_sites, intra,
                     [](std::size_t s) { return static_cast<unsigned>(s % 3); },
                     [&](unsigned, unsigned) { return inter; });
    }

    case TopologyProfile::wan: {
      // Two regions (first half of the sites vs the rest) joined by a long
      //-haul link: ~0.5ms inside a region, ~40ms across. Cross-region jitter
      // is large enough that spontaneous total order breaks down for
      // concurrent cross-region submissions.
      const EdgeParams intra{500 * kMicrosecond, 80 * kMicrosecond, 0.05, kMillisecond};
      const EdgeParams inter{40 * kMillisecond, 3 * kMillisecond, 0.08, 5 * kMillisecond};
      const std::size_t west = (n_sites + 1) / 2;
      return grouped(profile, n_sites, intra,
                     [west](std::size_t s) { return static_cast<unsigned>(s >= west); },
                     [&](unsigned, unsigned) { return inter; });
    }

    case TopologyProfile::geo_3dc: {
      // Three datacenters (site s is in DC s % 3) with LAN-grade edges inside
      // a DC and geographically distinct inter-DC distances (a latency
      // triangle, e.g. us-east / us-west / eu): the per-edge lookahead spread
      // is what the channel-clock engine exploits.
      const EdgeParams intra{50 * kMicrosecond, 20 * kMicrosecond, 0.06, 310 * kMicrosecond};
      const EdgeParams near{10 * kMillisecond, kMillisecond, 0.05, 3 * kMillisecond};
      const EdgeParams mid{25 * kMillisecond, 2 * kMillisecond, 0.05, 4 * kMillisecond};
      const EdgeParams far{35 * kMillisecond, 3 * kMillisecond, 0.05, 5 * kMillisecond};
      return grouped(profile, n_sites, intra,
                     [](std::size_t s) { return static_cast<unsigned>(s % 3); },
                     [&](unsigned a, unsigned b) {
                       const unsigned lo = a < b ? a : b;
                       const unsigned hi = a < b ? b : a;
                       if (lo == 0 && hi == 1) return near;
                       if (lo == 1 && hi == 2) return mid;
                       return far;  // 0 <-> 2
                     });
    }
  }
  OTPDB_CHECK_MSG(false, "unknown topology profile");
  return {};
}

const char* topology_profile_name(TopologyProfile profile) {
  switch (profile) {
    case TopologyProfile::lan: return "lan";
    case TopologyProfile::metro: return "metro";
    case TopologyProfile::wan: return "wan";
    case TopologyProfile::geo_3dc: return "geo-3dc";
  }
  return "?";
}

std::optional<TopologyProfile> parse_topology_profile(std::string_view name) {
  if (name == "lan") return TopologyProfile::lan;
  if (name == "metro") return TopologyProfile::metro;
  if (name == "wan") return TopologyProfile::wan;
  if (name == "geo-3dc" || name == "geo_3dc" || name == "geo3dc") return TopologyProfile::geo_3dc;
  return std::nullopt;
}

const char* topology_profile_list() { return "lan, metro, wan, geo-3dc"; }

}  // namespace otpdb
