#include "world/population.h"

#include <algorithm>
#include <cmath>

namespace ipfs::world {
namespace {

// Transport mix: WebSocket and QUIC shares; the rest dial over TCP.
constexpr double kWebsocketShare = 0.05;
constexpr double kQuicShare = 0.15;
// 8.8 % of peers advertise addresses in multiple countries (Figure 5).
constexpr double kMultihomingShare = 0.088;
// Peers that land on an already-used IP (Figure 7c: 7.7 % of IPs host
// more than one PeerID, with a heavy farm tail).
constexpr double kSharedIpPeerShare = 0.25;

// Samples an index from `weights` (need not be normalized).
std::size_t weighted_pick(const std::vector<double>& weights, sim::Rng& rng) {
  double total = 0.0;
  for (const double w : weights) total += w;
  double x = rng.uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x <= 0.0) return i;
  }
  return weights.size() - 1;
}

std::string fresh_ip(std::uint32_t n) {
  // Avoid reserved-looking prefixes; uniqueness is what matters.
  return std::to_string(20 + (n >> 16) % 200) + "." +
         std::to_string((n >> 8) & 0xff) + "." + std::to_string(n & 0xff) +
         "." + std::to_string(1 + (n >> 24));
}

}  // namespace

Population generate_population(const PopulationConfig& config, sim::Rng rng) {
  Population out;
  out.peers.reserve(config.peer_count);

  const auto& country_list = countries();
  std::vector<double> country_weights;
  for (const auto& c : country_list) country_weights.push_back(c.peer_share);

  // Pre-compute per-country AS index lists and weights.
  const auto& as_list = autonomous_systems();
  std::vector<std::vector<std::size_t>> country_ases(country_list.size());
  std::vector<std::vector<double>> country_as_weights(country_list.size());
  for (std::size_t i = 0; i < as_list.size(); ++i) {
    country_ases[as_list[i].country].push_back(i);
    country_as_weights[as_list[i].country].push_back(as_list[i].weight);
  }

  const auto& clouds = cloud_providers();
  double cloud_total = 0.0;
  for (const auto& c : clouds) cloud_total += c.share_of_peers;

  // Shared-IP pool with a Zipf tail: a handful of "farm" IPs host many
  // PeerIDs (Figure 7c's top-10 IPs host tens of thousands).
  const std::size_t shared_pool_size =
      std::max<std::size_t>(8, config.peer_count / 10);
  std::vector<std::string> shared_pool;
  std::vector<int> shared_pool_country;

  std::uint32_t ip_counter = 0;

  for (std::size_t i = 0; i < config.peer_count; ++i) {
    PeerProfile peer;
    peer.country = static_cast<int>(weighted_pick(country_weights, rng));

    // Cloud assignment (Table 3): ~2.3 % of peers.
    if (rng.chance(cloud_total)) {
      std::vector<double> cloud_weights;
      for (const auto& c : clouds) cloud_weights.push_back(c.share_of_peers);
      peer.cloud_provider = static_cast<int>(weighted_pick(cloud_weights, rng));
      peer.stable = true;
      peer.dialable = true;
    } else {
      peer.dialable = !rng.chance(config.undialable_share);
    }

    // AS: Zipf-ish within the peer's country; the pinned Table 2 giants
    // carry most of the weight in CN/HK/BR/TW.
    peer.as_index = country_ases[peer.country][weighted_pick(
        country_as_weights[peer.country], rng)];

    // Transport mix. WebSocket servers are long-lived gateway/relay
    // style processes: always dialable (their flaky dials are what hang
    // for the full 45 s handshake timeout in Figure 9c).
    const double t = rng.uniform();
    if (t < kWebsocketShare && peer.dialable) {
      // WebSocket servers are dialable but churn like everyone else;
      // dialing one that just went offline can hang for the full 45 s
      // handshake timeout — the paper's heavy publication tail.
      peer.transport = sim::Transport::kWebSocket;
    } else if (t < kWebsocketShare + kQuicShare) {
      peer.transport = sim::Transport::kQuic;
    } else {
      peer.transport = sim::Transport::kTcp;
    }

    // IP assignment: mostly fresh, sometimes from the shared pool.
    std::string ip;
    int ip_country = peer.country;
    if (rng.chance(kSharedIpPeerShare) && !shared_pool.empty()) {
      const auto rank = rng.zipf(shared_pool.size(), 1.2);
      ip = shared_pool[rank - 1];
      ip_country = shared_pool_country[rank - 1];
      peer.country = ip_country;  // co-located PeerIDs share the host
    } else {
      ip = fresh_ip(ip_counter++);
      if (shared_pool.size() < shared_pool_size && rng.chance(0.5)) {
        shared_pool.push_back(ip);
        shared_pool_country.push_back(ip_country);
      }
    }
    peer.ips.push_back(ip);
    peer.ip_countries.push_back(ip_country);
    out.geodb.add(ip, GeoDatabase::IpInfo{ip_country, peer.as_index,
                                          peer.cloud_provider});

    // Multihoming: a second address in a different country.
    if (rng.chance(kMultihomingShare)) {
      int other_country = static_cast<int>(weighted_pick(country_weights, rng));
      if (other_country == peer.country)
        other_country =
            (peer.country + 1) % static_cast<int>(country_list.size());
      const std::string second_ip = fresh_ip(ip_counter++);
      peer.ips.push_back(second_ip);
      peer.ip_countries.push_back(other_country);
      const std::size_t second_as = country_ases[other_country][weighted_pick(
          country_as_weights[other_country], rng)];
      out.geodb.add(second_ip, GeoDatabase::IpInfo{other_country, second_as,
                                                   peer.cloud_provider});
    }

    // Churn profile (Figure 8): log-normal sessions with a per-country
    // median; cloud peers are near-permanent.
    if (peer.stable) {
      peer.session_median_minutes = 7.0 * 24 * 60;  // a week
      peer.offline_median_minutes = 30.0;
    } else {
      peer.session_median_minutes =
          country_list[peer.country].uptime_median_minutes;
      const double f = config.online_fraction;
      peer.offline_median_minutes =
          peer.session_median_minutes * (1.0 - f) / f;
    }

    out.peers.push_back(std::move(peer));
  }

  return out;
}

}  // namespace ipfs::world
