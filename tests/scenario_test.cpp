// ScenarioBuilder tests: the fluent experiment API must hand back fully
// wired simulations (fabric + DHT swarm), honor every knob it exposes,
// and stay deterministic — two builds from the same description are the
// same experiment.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scenario/scenario.h"
#include "sim/network.h"
#include "world/world.h"

namespace ipfs::scenario {
namespace {

TEST(ScenarioBuilderTest, BuildsAWiredSwarm) {
  Scenario scenario = ScenarioBuilder()
                          .peers(8)
                          .seed(21)
                          .single_region(10.0)
                          .dht_servers(true)
                          .build();
  EXPECT_EQ(scenario.size(), 8u);
  EXPECT_EQ(scenario.network().node_count(), 8u);
  ASSERT_EQ(scenario.refs().size(), 8u);
  // Every node got a DHT server with a pre-sampled routing table.
  for (std::size_t i = 0; i < scenario.size(); ++i) {
    EXPECT_EQ(scenario.ref(i).node, scenario.node(i));
    EXPECT_GT(scenario.dht(i).routing_table().size(), 0u);
  }
}

TEST(ScenarioBuilderTest, FabricOnlyBuildHasNoDhtNodes) {
  Scenario scenario = ScenarioBuilder().peers(3).seed(4).build();
  EXPECT_EQ(scenario.network().node_count(), 3u);
  EXPECT_TRUE(scenario.refs().empty());
}

TEST(ScenarioBuilderTest, SameSeedSameScenario) {
  const auto fingerprint = [](Scenario& scenario) {
    // Sampled latencies consume the fabric rng stream in build order, so
    // equal sequences mean equal wiring and equal rng state.
    std::vector<sim::Duration> samples;
    for (std::size_t i = 1; i < scenario.size(); ++i)
      samples.push_back(
          scenario.network().sample_latency(scenario.node(0),
                                            scenario.node(i)));
    return samples;
  };
  Scenario a = ScenarioBuilder().peers(6).seed(9).dht_servers(true).build();
  Scenario b = ScenarioBuilder().peers(6).seed(9).dht_servers(true).build();
  EXPECT_EQ(fingerprint(a), fingerprint(b));
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a.ref(i).id.encode(), b.ref(i).id.encode());
}

TEST(ScenarioBuilderTest, UndialableFractionMarksNodes) {
  Scenario scenario = ScenarioBuilder()
                          .peers(200)
                          .seed(33)
                          .undialable_fraction(0.4)
                          .build();
  std::size_t undialable = 0;
  for (std::size_t i = 0; i < scenario.size(); ++i)
    if (!scenario.network().config(scenario.node(i)).dialable) ++undialable;
  // Bernoulli draws around 40%: allow a generous band.
  EXPECT_GT(undialable, 50u);
  EXPECT_LT(undialable, 120u);
}

TEST(ScenarioBuilderTest, WorldConfigMapsEveryKnob) {
  const world::WorldConfig config = ScenarioBuilder()
                                        .peers(500)
                                        .seed(77)
                                        .churn(false)
                                        .bootstrap_count(4)
                                        .max_routing_entries(64)
                                        .dcutr_share(0.25)
                                        .hydra(3, 15)
                                        .indexers(2)
                                        .indexer_config(
                                            indexer::IndexerConfig()
                                                .with_ingest_lag(
                                                    sim::seconds(7)))
                                        .world_config();
  EXPECT_EQ(config.population.peer_count, 500u);
  EXPECT_EQ(config.seed, 77u);
  EXPECT_FALSE(config.enable_churn);
  EXPECT_EQ(config.bootstrap_count, 4u);
  EXPECT_EQ(config.max_routing_entries, 64u);
  EXPECT_DOUBLE_EQ(config.dcutr_share, 0.25);
  EXPECT_EQ(config.hydra_count, 3u);
  EXPECT_EQ(config.hydra_heads, 15u);
  EXPECT_EQ(config.indexer_count, 2u);
  EXPECT_EQ(config.indexer.ingest_lag, sim::seconds(7));
}

TEST(ScenarioBuilderTest, IndexerKnobAppendsIndexersAfterPeers) {
  Scenario scenario = ScenarioBuilder()
                          .peers(3)
                          .seed(12)
                          .indexers(2)
                          .build();
  EXPECT_EQ(scenario.network().node_count(), 5u);
  ASSERT_EQ(scenario.indexer_count(), 2u);
  // Appended after every peer node, so peer ids are untouched.
  EXPECT_EQ(scenario.indexer(0).node(), 3u);
  EXPECT_EQ(scenario.indexer(1).node(), 4u);
  const routing::RoutingConfig& routing = scenario.routing_config();
  EXPECT_EQ(routing.mode, routing::RoutingConfig::Mode::kRace);
  ASSERT_EQ(routing.indexers.size(), 2u);
  EXPECT_EQ(routing.indexers[0], scenario.indexer(0).node());
  EXPECT_EQ(routing.indexers[1], scenario.indexer(1).node());
}

TEST(ScenarioBuilderTest, IndexerKnobLeavesPeerIdentitiesBitIdentical) {
  Scenario plain =
      ScenarioBuilder().peers(6).seed(9).dht_servers(true).build();
  Scenario with_indexers = ScenarioBuilder()
                               .peers(6)
                               .seed(9)
                               .dht_servers(true)
                               .indexers(2)
                               .build();
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain.node(i), with_indexers.node(i));
    EXPECT_EQ(plain.ref(i).id.encode(), with_indexers.ref(i).id.encode());
  }
}

TEST(ScenarioBuilderTest, BuildWorldHonorsPeerCount) {
  const auto world =
      ScenarioBuilder().peers(60).seed(5).churn(false).build_world();
  EXPECT_EQ(world->size(), 60u);
}

TEST(ScenarioBuilderTest, SyntheticIdsAreStableAndDistinct) {
  EXPECT_EQ(synthetic_peer_id(7).encode(), synthetic_peer_id(7).encode());
  EXPECT_NE(synthetic_peer_id(7).encode(), synthetic_peer_id(8).encode());
  const std::string addr = synthetic_address(3).to_string();
  EXPECT_NE(addr.find("/tcp/"), std::string::npos);
}

}  // namespace
}  // namespace ipfs::scenario
