// World-model tests: population marginals, geo database, routing-table
// pre-convergence, churn dynamics and end-to-end lookups over the world.
#include <gtest/gtest.h>

#include "crypto/sha256.h"
#include "dht/dht_node.h"
#include "world/world.h"

namespace ipfs::world {
namespace {

WorldConfig small_config(std::size_t peers = 600, std::uint64_t seed = 7) {
  WorldConfig config;
  config.population.peer_count = peers;
  config.seed = seed;
  return config;
}

TEST(GeographyTest, CountrySharesSumToOne) {
  double total = 0.0;
  for (const auto& country : countries()) total += country.peer_share;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(GeographyTest, LatencyMatrixIsSymmetricAndPositive) {
  const auto model = default_latency_model();
  EXPECT_EQ(model.regions(), kRegionCount);
  sim::Rng rng(1);
  for (int a = 0; a < kRegionCount; ++a) {
    for (int b = 0; b < kRegionCount; ++b) {
      const auto sample = model.sample(a, b, rng);
      EXPECT_GT(sample, 0);
      EXPECT_LT(sample, sim::milliseconds(300));
    }
  }
}

TEST(GeographyTest, AsCatalogHasPaperHeavyHitters) {
  const auto& ases = autonomous_systems();
  ASSERT_GE(ases.size(), 5u);
  EXPECT_EQ(ases[0].asn, 4134u);  // CHINANET (Table 2)
  EXPECT_EQ(ases[1].asn, 4837u);  // CHINA169
  EXPECT_GT(ases.size(), 500u);   // long tail exists
}

TEST(PopulationTest, MarginalsRoughlyMatchConfig) {
  PopulationConfig config;
  config.peer_count = 4000;
  const auto population = generate_population(config, sim::Rng(3));
  ASSERT_EQ(population.peers.size(), 4000u);

  std::size_t undialable = 0, multihomed = 0, stable = 0, us = 0;
  for (const auto& peer : population.peers) {
    if (!peer.dialable) ++undialable;
    if (peer.ips.size() > 1) ++multihomed;
    if (peer.stable) ++stable;
    if (countries()[peer.country].code == "US") ++us;
  }
  // Undialable share tracks the config default, multihoming ~8.8 %,
  // cloud ~2.3 %, US ~28.5 %.
  EXPECT_NEAR(static_cast<double>(undialable) / 4000.0,
              config.undialable_share, 0.05);
  EXPECT_NEAR(static_cast<double>(multihomed) / 4000.0, 0.088, 0.03);
  EXPECT_NEAR(static_cast<double>(stable) / 4000.0, 0.023, 0.015);
  EXPECT_NEAR(static_cast<double>(us) / 4000.0, 0.285, 0.06);
}

TEST(PopulationTest, GeoDatabaseCoversEveryIp) {
  PopulationConfig config;
  config.peer_count = 500;
  const auto population = generate_population(config, sim::Rng(4));
  for (const auto& peer : population.peers) {
    for (std::size_t i = 0; i < peer.ips.size(); ++i) {
      const auto* info = population.geodb.lookup(peer.ips[i]);
      ASSERT_NE(info, nullptr);
      EXPECT_EQ(info->country, peer.ip_countries[i]);
    }
  }
}

TEST(PopulationTest, SomeIpsHostManyPeers) {
  PopulationConfig config;
  config.peer_count = 3000;
  const auto population = generate_population(config, sim::Rng(5));
  std::map<std::string, int> per_ip;
  for (const auto& peer : population.peers) ++per_ip[peer.ips.front()];
  int max_count = 0;
  for (const auto& [ip, count] : per_ip) max_count = std::max(max_count, count);
  EXPECT_GT(max_count, 10);  // the farm tail of Figure 7c
}

TEST(WorldTest, BuildsRequestedPeerCount) {
  World world(small_config());
  EXPECT_EQ(world.size(), 600u);
  EXPECT_EQ(world.bootstrap_refs().size(), 6u);
}

TEST(WorldTest, RoutingTablesArePreConverged) {
  World world(small_config());
  std::size_t total_entries = 0;
  for (std::size_t i = 0; i < world.size(); ++i)
    total_entries += world.dht(i).routing_table().size();
  // Every peer knows a healthy sample of the swarm.
  EXPECT_GT(total_entries / world.size(), 40u);
}

TEST(WorldTest, BootstrapPeersAreStableAndDialable) {
  World world(small_config());
  for (const auto& ref : world.bootstrap_refs()) {
    EXPECT_TRUE(world.network().config(ref.node).dialable);
    EXPECT_TRUE(world.network().online(ref.node));
  }
  // Bootstrap peers are exempt from churn: still online much later.
  world.simulator().run_until(sim::hours(6));
  for (const auto& ref : world.bootstrap_refs())
    EXPECT_TRUE(world.network().online(ref.node));
}

TEST(WorldTest, ChurnKeepsOnlineFractionInSteadyState) {
  World world(small_config(800));
  world.simulator().run_until(sim::hours(2));
  const double online = world.online_fraction();
  // Dialable non-stable peers target 75 % availability; undialable peers
  // (~1/3 of the swarm) never go offline, so overall online share is high
  // but clearly below 1.
  EXPECT_GT(online, 0.6);
  EXPECT_LT(online, 0.98);
  EXPECT_GT(world.churn().transitions(), 100u);
}

TEST(WorldTest, LookupsWorkAcrossTheWorld) {
  World world(small_config(700, /*seed=*/13));
  const dht::Key key =
      dht::Key::hash_of(std::vector<std::uint8_t>{1, 2, 3, 4, 5});

  // A dialable world peer publishes; another finds the record.
  dht::DhtNode::ProvideResult provide;
  std::size_t publisher = 10;
  while (!world.profile(publisher).dialable) ++publisher;
  world.dht(publisher).provide(
      key, [&](dht::DhtNode::ProvideResult r) { provide = r; });
  world.simulator().run();
  ASSERT_TRUE(provide.ok);
  EXPECT_GT(provide.stores_sent, 8);

  std::size_t requester = publisher + 7;
  while (!world.profile(requester).dialable) ++requester;
  dht::LookupResult lookup;
  world.dht(requester).find_providers(
      key, [&](dht::LookupResult r) { lookup = r; });
  world.simulator().run();
  ASSERT_FALSE(lookup.providers.empty());
  EXPECT_EQ(lookup.providers.front().provider.id,
            world.ref(publisher).id);
}

TEST(WorldTest, DeterministicForSameSeed) {
  World a(small_config(300, 99));
  World b(small_config(300, 99));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.ref(i).id, b.ref(i).id);
    EXPECT_EQ(a.profile(i).country, b.profile(i).country);
    EXPECT_EQ(a.profile(i).dialable, b.profile(i).dialable);
  }
}

// SHA-256 over every seeded table of a 3,000-peer world with two 4-head
// hydras at seed 7, in node order: each table's size, then each of its
// all_peers() as the peer's node and encoded id.
std::string seeded_tables_digest(std::size_t max_routing_entries) {
  WorldConfig config = small_config(3000, 7);
  config.hydra_count = 2;
  config.hydra_heads = 4;
  config.max_routing_entries = max_routing_entries;
  World world(config);
  crypto::Sha256 hash;
  const auto fold = [&hash](std::uint64_t value) {
    std::uint8_t bytes[8];
    for (int i = 0; i < 8; ++i)
      bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
    hash.update(std::span<const std::uint8_t>(bytes, 8));
  };
  for (std::size_t i = 0; i < world.size(); ++i) {
    const auto peers = world.dht(i).routing_table().all_peers();
    fold(peers.size());
    for (const auto& peer : peers) {
      fold(peer.node);
      hash.update(peer.id.encode());
    }
  }
  return crypto::to_hex(hash.finish());
}

TEST(WorldTest, SeededTablesMatchPinnedDigest) {
  // Determinism gate for the world's routing tables: which peers each
  // table holds, and in what order. At cap 192 every table takes its
  // full k per bucket; at cap 24 each table splits the budget either by
  // reserve-then-deepest or round-robin. Taken at the commit before the
  // seeder built each table whole on one thread. Any change to the plan
  // or its rng draws moves a digest; re-pin only for a deliberate change
  // of seeded output, and say why.
  EXPECT_EQ(seeded_tables_digest(192),
            "8f23a8aea9be0bc8404e03c1878df72b7c712d78b3b5280acb6144900070c1d4");
  EXPECT_EQ(seeded_tables_digest(24),
            "9513006e5bcb0fff3b3bacc461cb27cec38dd741e09e5f4ac9cbf1bf72949803");
}

}  // namespace
}  // namespace ipfs::world
