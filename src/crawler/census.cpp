#include "crawler/census.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "world/geography.h"

namespace ipfs::crawler {
namespace {

std::vector<CountryShare> to_country_shares(
    const std::map<std::string, std::size_t>& counts) {
  std::size_t total = 0;
  for (const auto& [code, count] : counts) total += count;
  std::vector<CountryShare> out;
  for (const auto& [code, count] : counts) {
    out.push_back({code, count,
                   total == 0 ? 0.0
                              : static_cast<double>(count) /
                                    static_cast<double>(total)});
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.count > b.count;
  });
  return out;
}

}  // namespace

std::vector<CountryShare> country_distribution_of(
    const std::vector<PeerObservation>& observations,
    const world::GeoDatabase& geodb) {
  std::map<std::string, std::size_t> counts;
  for (const auto& obs : observations) {
    // Multihoming: a peer with addresses in several countries is counted
    // once per country (as in Figure 5).
    std::set<int> seen_countries;
    for (const auto& ip : extract_ips(obs.peer)) {
      const auto* info = geodb.lookup(ip);
      if (info == nullptr) continue;
      if (!seen_countries.insert(info->country).second) continue;
      counts[std::string(world::countries()[info->country].code)]++;
    }
  }
  return to_country_shares(counts);
}

std::vector<CountryShare> country_distribution(
    const CrawlResult& crawl, const world::GeoDatabase& geodb) {
  return country_distribution_of(crawl.observations, geodb);
}

std::vector<std::size_t> peers_per_ip(const CrawlResult& crawl) {
  std::unordered_map<std::string, std::size_t> counts;
  for (const auto& obs : crawl.observations)
    for (const auto& ip : extract_ips(obs.peer)) ++counts[ip];
  std::vector<std::size_t> out;
  out.reserve(counts.size());
  for (const auto& [ip, count] : counts) out.push_back(count);
  std::sort(out.rbegin(), out.rend());
  return out;
}

std::vector<AsShare> as_distribution(const CrawlResult& crawl,
                                     const world::GeoDatabase& geodb) {
  // Unique IPs per AS.
  std::unordered_map<std::string, std::size_t> ip_to_as;
  for (const auto& obs : crawl.observations) {
    for (const auto& ip : extract_ips(obs.peer)) {
      const auto* info = geodb.lookup(ip);
      if (info != nullptr) ip_to_as.emplace(ip, info->as_index);
    }
  }
  std::unordered_map<std::size_t, std::size_t> as_counts;
  for (const auto& [ip, as_index] : ip_to_as) ++as_counts[as_index];

  const auto& catalog = world::autonomous_systems();
  std::vector<AsShare> out;
  out.reserve(as_counts.size());
  const double total = static_cast<double>(ip_to_as.size());
  for (const auto& [as_index, count] : as_counts) {
    const auto& spec = catalog[as_index];
    out.push_back({spec.asn, spec.name, spec.caida_rank, count,
                   static_cast<double>(count) / total});
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.ip_count > b.ip_count;
  });
  return out;
}

std::vector<CloudShare> cloud_distribution(const CrawlResult& crawl,
                                           const world::GeoDatabase& geodb) {
  std::unordered_map<std::string, int> ip_to_cloud;
  for (const auto& obs : crawl.observations) {
    for (const auto& ip : extract_ips(obs.peer)) {
      const auto* info = geodb.lookup(ip);
      if (info != nullptr) ip_to_cloud.emplace(ip, info->cloud_provider);
    }
  }
  std::map<int, std::size_t> counts;  // -1 = non-cloud
  for (const auto& [ip, cloud] : ip_to_cloud) ++counts[cloud];

  const auto& clouds = world::cloud_providers();
  const double total = static_cast<double>(ip_to_cloud.size());
  std::vector<CloudShare> out;
  for (const auto& [cloud, count] : counts) {
    CloudShare share;
    share.provider = cloud < 0 ? "Non-Cloud" : clouds[cloud].name;
    share.ip_count = count;
    share.share = static_cast<double>(count) / total;
    out.push_back(std::move(share));
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    // Non-Cloud row last, clouds by size.
    if ((a.provider == "Non-Cloud") != (b.provider == "Non-Cloud"))
      return b.provider == "Non-Cloud";
    return a.ip_count > b.ip_count;
  });
  return out;
}

std::map<std::string, std::vector<double>> session_lengths_by_country(
    const std::vector<SessionRecord>& sessions,
    const world::GeoDatabase& geodb, sim::Time window_start,
    sim::Time window_end) {
  const sim::Time half = window_start + (window_end - window_start) / 2;
  std::map<std::string, std::vector<double>> out;
  for (const auto& session : sessions) {
    if (session.start < window_start || session.start > half) continue;
    const auto ips = extract_ips(session.peer);
    if (ips.empty()) continue;
    const auto* info = geodb.lookup(ips.front());
    if (info == nullptr) continue;
    const auto code = std::string(world::countries()[info->country].code);
    out[code].push_back(sim::to_seconds(session.length()) / 3600.0);  // hours
  }
  return out;
}

std::vector<PeerObservation> reliable_peers(
    const CrawlResult& crawl, const std::vector<SessionRecord>& sessions,
    sim::Time window_start, sim::Time window_end, double threshold) {
  // Total online time per peer across the window.
  std::map<std::vector<std::uint8_t>, sim::Duration> online_time;
  for (const auto& session : sessions) {
    const sim::Time start = std::max(session.start, window_start);
    const sim::Time end = std::min(session.end, window_end);
    if (end <= start) continue;
    online_time[session.peer.id.encode()] += end - start;
  }
  const auto window = static_cast<double>(window_end - window_start);
  std::vector<PeerObservation> out;
  for (const auto& obs : crawl.observations) {
    const auto it = online_time.find(obs.peer.id.encode());
    if (it == online_time.end()) continue;
    if (static_cast<double>(it->second) / window >= threshold)
      out.push_back(obs);
  }
  return out;
}

}  // namespace ipfs::crawler
