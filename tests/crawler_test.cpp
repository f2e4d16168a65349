// Measurement-tooling tests: the k-bucket crawler, the adaptive uptime
// prober and the census aggregations behind Section 5's figures.
#include <gtest/gtest.h>

#include "crawler/census.h"
#include "crawler/crawler.h"
#include "crawler/uptime_prober.h"
#include "world/world.h"

namespace ipfs::crawler {
namespace {

world::WorldConfig crawl_config(std::size_t peers = 600,
                                std::uint64_t seed = 17) {
  world::WorldConfig config;
  config.population.peer_count = peers;
  config.seed = seed;
  return config;
}

sim::NodeId add_crawler_node(world::World& world) {
  // The crawler machine: well connected, reliable (Section 4.1 runs it
  // from a server in Germany).
  sim::NodeConfig config;
  config.region = world::kEuCentral;
  config.upload_bytes_per_sec = 100.0 * 1024 * 1024;
  config.download_bytes_per_sec = 100.0 * 1024 * 1024;
  return world.network().add_node(config);
}

TEST(CrawlerTest, DiscoversMostOfTheSwarm) {
  world::World world(crawl_config());
  const auto self = add_crawler_node(world);
  Crawler crawler(world.network(), self, world.bootstrap_refs());

  CrawlResult result;
  crawler.crawl([&](CrawlResult r) { result = std::move(r); });
  world.simulator().run();

  // The crawl reaches every peer present in some k-bucket — nearly the
  // whole swarm with pre-converged tables.
  EXPECT_GT(result.total(), world.size() * 9 / 10);
  EXPECT_GT(result.finished_at, result.started_at);
  EXPECT_GT(result.multiaddress_count(), result.total());  // multihoming
}

TEST(CrawlerTest, ReportsDialableAndUndialableSplit) {
  world::World world(crawl_config(800, 19));
  const auto self = add_crawler_node(world);
  Crawler crawler(world.network(), self, world.bootstrap_refs());

  CrawlResult result;
  crawler.crawl([&](CrawlResult r) { result = std::move(r); });
  world.simulator().run();

  const double dialable_share =
      static_cast<double>(result.dialable()) /
      static_cast<double>(result.total());
  // Undialable servers (~35 %) plus churned-out peers push the dialable
  // share well below 1 (Section 5.1 measures 54.5 %).
  EXPECT_LT(dialable_share, 0.8);
  EXPECT_GT(dialable_share, 0.3);
}

TEST(CrawlerTest, ExtractsIpsFromMultiaddrs) {
  dht::PeerRef peer;
  peer.addresses = {multiformats::make_tcp_multiaddr("1.2.3.4", 4001),
                    multiformats::make_quic_multiaddr("5.6.7.8", 4001)};
  const auto ips = extract_ips(peer);
  ASSERT_EQ(ips.size(), 2u);
  EXPECT_EQ(ips[0], "1.2.3.4");
  EXPECT_EQ(ips[1], "5.6.7.8");
}

TEST(CensusTest, CountryDistributionRecoversPopulationShares) {
  world::World world(crawl_config(1500, 23));
  const auto self = add_crawler_node(world);
  Crawler crawler(world.network(), self, world.bootstrap_refs());
  CrawlResult result;
  crawler.crawl([&](CrawlResult r) { result = std::move(r); });
  world.simulator().run();

  const auto shares = country_distribution(result, world.geodb());
  ASSERT_FALSE(shares.empty());
  // US and CN must dominate, in that order of magnitude (Figure 5).
  double us = 0, cn = 0;
  for (const auto& share : shares) {
    if (share.code == "US") us = share.share;
    if (share.code == "CN") cn = share.share;
  }
  EXPECT_NEAR(us, 0.285, 0.08);
  EXPECT_NEAR(cn, 0.242, 0.08);
}

TEST(CensusTest, AsDistributionIsHeavyTailed) {
  world::World world(crawl_config(1500, 29));
  const auto self = add_crawler_node(world);
  Crawler crawler(world.network(), self, world.bootstrap_refs());
  CrawlResult result;
  crawler.crawl([&](CrawlResult r) { result = std::move(r); });
  world.simulator().run();

  const auto ases = as_distribution(result, world.geodb());
  ASSERT_GT(ases.size(), 50u);
  double top10 = 0.0;
  for (std::size_t i = 0; i < 10 && i < ases.size(); ++i)
    top10 += ases[i].share;
  // Table 2 / Section 5.2: the top-10 ASes hold roughly 2/3 of the IPs.
  EXPECT_GT(top10, 0.4);
  // CHINANET should be the single heaviest AS.
  EXPECT_EQ(ases[0].asn, 4134u);
}

TEST(CensusTest, CloudShareIsSmall) {
  world::World world(crawl_config(1500, 31));
  const auto self = add_crawler_node(world);
  Crawler crawler(world.network(), self, world.bootstrap_refs());
  CrawlResult result;
  crawler.crawl([&](CrawlResult r) { result = std::move(r); });
  world.simulator().run();

  const auto clouds = cloud_distribution(result, world.geodb());
  double cloud_total = 0.0;
  for (const auto& share : clouds)
    if (share.provider != "Non-Cloud") cloud_total += share.share;
  // Table 3: under ~2.3 % of nodes run on cloud infrastructure.
  EXPECT_LT(cloud_total, 0.06);
  EXPECT_GT(cloud_total, 0.002);
}

TEST(CensusTest, PeersPerIpHasHeavyTail) {
  world::World world(crawl_config(1500, 37));
  const auto self = add_crawler_node(world);
  Crawler crawler(world.network(), self, world.bootstrap_refs());
  CrawlResult result;
  crawler.crawl([&](CrawlResult r) { result = std::move(r); });
  world.simulator().run();

  const auto counts = peers_per_ip(result);
  ASSERT_FALSE(counts.empty());
  EXPECT_GT(counts.front(), 5u);  // a farm IP
  // The vast majority of IPs host exactly one PeerID (Figure 7c: 92.3 %).
  std::size_t singles = 0;
  for (const auto count : counts)
    if (count == 1) ++singles;
  EXPECT_GT(static_cast<double>(singles) / counts.size(), 0.75);
}

TEST(UptimeProberTest, RecordsSessions) {
  world::World world(crawl_config(400, 41));
  const auto self = add_crawler_node(world);

  UptimeProber prober(world.network(), self);
  for (std::size_t i = 6; i < world.size(); ++i) {
    if (world.profile(i).dialable) prober.track(world.ref(i));
  }
  world.simulator().run_until(sim::hours(4));
  prober.finish();

  EXPECT_GT(prober.probes_sent(), 1000u);
  EXPECT_GT(prober.sessions().size(), 50u);
  std::size_t censored = 0;
  for (const auto& session : prober.sessions()) {
    EXPECT_GE(session.length(), 0);
    if (session.censored) ++censored;
  }
  EXPECT_GT(censored, 0u);  // peers still online at the window end
}

TEST(UptimeProberTest, SessionLengthsByCountryAreComputable) {
  world::World world(crawl_config(600, 43));
  const auto self = add_crawler_node(world);
  UptimeProber prober(world.network(), self);
  for (std::size_t i = 6; i < world.size(); ++i)
    if (world.profile(i).dialable) prober.track(world.ref(i));
  world.simulator().run_until(sim::hours(6));
  prober.finish();

  const auto by_country = session_lengths_by_country(
      prober.sessions(), world.geodb(), 0, sim::hours(6));
  ASSERT_FALSE(by_country.empty());
  // The biggest populations must be represented.
  EXPECT_TRUE(by_country.contains("US") || by_country.contains("CN"));
}

TEST(UptimeProberTest, StableCloudPeersShowAsReliable) {
  world::World world(crawl_config(500, 47));
  const auto self = add_crawler_node(world);

  Crawler crawler(world.network(), self, world.bootstrap_refs());
  CrawlResult crawl_result;
  crawler.crawl([&](CrawlResult r) { crawl_result = std::move(r); });
  world.simulator().run();

  UptimeProber prober(world.network(), self);
  for (const auto& obs : crawl_result.observations) prober.track(obs.peer);
  const sim::Time window_start = world.simulator().now();
  world.simulator().run_until(window_start + sim::hours(5));
  prober.finish();

  const auto reliable =
      reliable_peers(crawl_result, prober.sessions(), window_start,
                     world.simulator().now());
  // Reliable peers exist but are a minority (Figure 7a: ~1.4 % over a
  // multi-week window; a 5 h test window is far more forgiving).
  EXPECT_GT(reliable.size(), 0u);
  EXPECT_LT(reliable.size(), crawl_result.total() / 2);
}

}  // namespace
}  // namespace ipfs::crawler
