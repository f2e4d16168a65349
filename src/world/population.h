// Synthetic peer population generator: draws per-peer attributes
// (country, AS, cloud, IPs, dialability, churn profile, transport) from
// the paper's published marginal distributions.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "sim/network.h"
#include "sim/rng.h"
#include "world/geography.h"

namespace ipfs::world {

struct PopulationConfig {
  std::size_t peer_count = 2000;
  // Share of crawlable peers that are never dialable (NAT'ed or
  // firewalled peers stuck in others' routing tables; Section 5.1 finds
  // 45.5 % of IPs never reachable, about 1/3 of peers never accessible).
  double undialable_share = 0.30;
  // Dial success to online, dialable peers (flaky reachability).
  double dial_success_prob = 0.96;
  // Steady-state online fraction for churning peers.
  double online_fraction = 0.75;
};

struct PeerProfile {
  int country = 0;
  std::size_t as_index = 0;       // into autonomous_systems()
  int cloud_provider = -1;        // into cloud_providers(), -1 = none
  std::vector<std::string> ips;   // one, or two when multihomed
  std::vector<int> ip_countries;  // country of each IP
  bool dialable = true;
  bool stable = false;            // cloud-grade uptime (reliable peers)
  sim::Transport transport = sim::Transport::kTcp;
  double session_median_minutes = 40.0;
  double offline_median_minutes = 13.0;
};

// The world's "GeoLite2/CAIDA/Udger" stand-in: resolves an IP address to
// country / AS / cloud provider. The measurement tooling consults this
// the same way the paper consults the real databases.
class GeoDatabase {
 public:
  struct IpInfo {
    int country = -1;
    std::size_t as_index = 0;
    int cloud_provider = -1;
  };

  void add(const std::string& ip, IpInfo info) { ips_[ip] = info; }
  const IpInfo* lookup(const std::string& ip) const {
    const auto it = ips_.find(ip);
    return it == ips_.end() ? nullptr : &it->second;
  }
  std::size_t size() const { return ips_.size(); }

 private:
  std::unordered_map<std::string, IpInfo> ips_;
};

struct Population {
  std::vector<PeerProfile> peers;
  GeoDatabase geodb;
};

Population generate_population(const PopulationConfig& config, sim::Rng rng);

}  // namespace ipfs::world
