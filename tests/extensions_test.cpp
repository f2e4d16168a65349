// Tests for the paper's future-work extensions implemented here:
// DCUtR hole punching, Hydra boosters, parallel Bitswap/DHT retrieval,
// capped replication, and gateway path resolution.
#include <gtest/gtest.h>

#include "gateway/gateway.h"
#include "merkledag/unixfs.h"
#include "node/ipfs_node.h"
#include "testutil.h"
#include "world/world.h"

namespace ipfs {
namespace {

using testutil::TestSwarm;

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

// --------------------------------------------------------------------------
// DCUtR (relayed dials to NAT'ed peers)
// --------------------------------------------------------------------------

TEST(DcutrTest, RelayedPeerBecomesDialable) {
  sim::Simulator simulator;
  const sim::LatencyModel latency({{20.0}}, 1.0, 1.0);
  sim::Network network(simulator, latency, 3);

  const sim::NodeId dialer = network.add_node({.region = 0});
  const sim::NodeId relay = network.add_node({.region = 0});
  sim::NodeConfig nat_config;
  nat_config.region = 0;
  nat_config.dialable = false;
  nat_config.relay = relay;
  nat_config.dcutr_success_prob = 1.0;
  const sim::NodeId natted = network.add_node(nat_config);

  bool ok = false;
  sim::Duration elapsed = 0;
  network.connect(dialer, natted, [&](bool success, sim::Duration d) {
    ok = success;
    elapsed = d;
  });
  simulator.run();
  EXPECT_TRUE(ok);
  EXPECT_TRUE(network.connected(dialer, natted));
  // Slower than a direct dial (two legs + punch), far faster than the
  // 5 s timeout the same peer would cost without a relay.
  EXPECT_GT(elapsed, sim::milliseconds(80));
  EXPECT_LT(elapsed, sim::seconds(2));
}

TEST(DcutrTest, OfflineRelayMeansTimeout) {
  sim::Simulator simulator;
  const sim::LatencyModel latency({{20.0}}, 1.0, 1.0);
  sim::Network network(simulator, latency, 3);
  const sim::NodeId dialer = network.add_node({.region = 0});
  const sim::NodeId relay = network.add_node({.region = 0});
  sim::NodeConfig nat_config;
  nat_config.region = 0;
  nat_config.dialable = false;
  nat_config.relay = relay;
  const sim::NodeId natted = network.add_node(nat_config);
  network.set_online(relay, false);

  bool ok = true;
  sim::Duration elapsed = 0;
  network.connect(dialer, natted, [&](bool success, sim::Duration d) {
    ok = success;
    elapsed = d;
  });
  simulator.run();
  EXPECT_FALSE(ok);
  EXPECT_GE(elapsed, sim::seconds(5));
}

TEST(DcutrTest, WorldAdoptionRaisesDialableShare) {
  world::WorldConfig base;
  base.population.peer_count = 500;
  base.seed = 61;
  base.enable_churn = false;  // isolate the NAT effect

  world::World without(base);
  base.dcutr_share = 1.0;
  world::World with(base);

  auto count_dialable = [](world::World& world) {
    std::size_t reachable = 0;
    for (std::size_t i = 6; i < world.size(); ++i) {
      const auto& config = world.network().config(world.ref(i).node);
      if (config.dialable || config.relay != sim::kInvalidNode) ++reachable;
    }
    return reachable;
  };
  EXPECT_GT(count_dialable(with), count_dialable(without));
}

// --------------------------------------------------------------------------
// Hydra boosters
// --------------------------------------------------------------------------

TEST(HydraTest, HeadsShareOneRecordStore) {
  world::WorldConfig config;
  config.population.peer_count = 200;
  config.seed = 67;
  config.hydra_count = 1;
  config.hydra_heads = 5;
  world::World world(config);
  ASSERT_EQ(world.size(), 205u);

  // Store a record via one head; every other head serves it.
  const dht::Key key = dht::Key::hash_of(std::vector<std::uint8_t>{1});
  const std::size_t first_head = 200;
  world.dht(first_head).record_store().add_provider(
      key, dht::ProviderRecord{world.ref(0), 0});
  for (std::size_t head = 200; head < 205; ++head) {
    EXPECT_EQ(world.dht(head)
                  .record_store()
                  .providers(key, sim::hours(1))
                  .size(),
              1u);
  }
  // Regular peers are unaffected.
  EXPECT_TRUE(world.dht(3).record_store().providers(key, 0).empty());
}

TEST(HydraTest, HeadsAreRoutableViaDht) {
  world::WorldConfig config;
  config.population.peer_count = 300;
  config.seed = 71;
  config.hydra_count = 2;
  config.hydra_heads = 10;
  world::World world(config);

  // Heads appear in regular peers' routing tables after seeding.
  std::size_t sightings = 0;
  for (std::size_t i = 0; i < 300; ++i) {
    for (const auto& peer : world.dht(i).routing_table().all_peers()) {
      for (std::size_t head = 300; head < world.size(); ++head) {
        if (peer.id == world.ref(head).id) ++sightings;
      }
    }
  }
  EXPECT_GT(sightings, 10u);
}

// --------------------------------------------------------------------------
// Parallel Bitswap/DHT retrieval
// --------------------------------------------------------------------------

TEST(ParallelRetrievalTest, FasterThanSerialOnDhtPath) {
  TestSwarm swarm(80, /*seed=*/73);
  std::vector<dht::PeerRef> seeds;
  for (int i = 0; i < 6; ++i) seeds.push_back(swarm.ref(i));

  node::IpfsNodeConfig publisher_config;
  publisher_config.net.region = 0;
  publisher_config.identity_seed = 1;
  node::IpfsNode publisher(swarm.network(), publisher_config);

  node::IpfsNodeConfig serial_config;
  serial_config.net.region = 0;
  serial_config.identity_seed = 2;
  node::IpfsNode serial(swarm.network(), serial_config);

  node::IpfsNodeConfig parallel_config;
  parallel_config.net.region = 0;
  parallel_config.identity_seed = 3;
  parallel_config.parallel_dht_lookup = true;
  node::IpfsNode parallel(swarm.network(), parallel_config);

  publisher.bootstrap(seeds, [](bool) {});
  serial.bootstrap(seeds, [](bool) {});
  parallel.bootstrap(seeds, [](bool) {});
  swarm.simulator().run();

  node::PublishTrace publish_trace;
  publisher.publish(random_bytes(256 * 1024, 99),
                    [&](node::PublishTrace t) { publish_trace = t; });
  swarm.simulator().run();
  ASSERT_TRUE(publish_trace.ok);

  node::RetrievalTrace serial_trace, parallel_trace;
  serial.retrieve(publish_trace.cid,
                  [&](node::RetrievalTrace t) { serial_trace = t; });
  swarm.simulator().run();
  // The serial node now holds the object too (provide_after_fetch), and
  // the runs so far left it connected to the parallel node. Drop both
  // holders so the parallel retrieval takes the DHT path as well.
  parallel.disconnect_from(serial.node());
  parallel.disconnect_from(publisher.node());
  parallel.retrieve(publish_trace.cid,
                    [&](node::RetrievalTrace t) { parallel_trace = t; });
  swarm.simulator().run();

  ASSERT_TRUE(serial_trace.ok);
  ASSERT_TRUE(parallel_trace.ok);
  // Serial pays the full 1 s window before its walk; parallel overlaps it.
  EXPECT_GE(serial_trace.bitswap_discovery, sim::seconds(1));
  EXPECT_LT(parallel_trace.total, serial_trace.total);
  // The missed window ran alongside the walk, off the critical path, so
  // the parallel trace charges it nothing; the walk found the provider.
  EXPECT_EQ(parallel_trace.bitswap_discovery, 0);
  EXPECT_EQ(parallel_trace.routing_source, routing::Source::kDht);
}

TEST(ParallelRetrievalTest, FailsCleanlyWhenNothingIsFound) {
  TestSwarm swarm(40, /*seed=*/79);
  std::vector<dht::PeerRef> seeds;
  for (int i = 0; i < 6; ++i) seeds.push_back(swarm.ref(i));
  node::IpfsNodeConfig config;
  config.net.region = 0;
  config.identity_seed = 4;
  config.parallel_dht_lookup = true;
  node::IpfsNode node(swarm.network(), config);
  node.bootstrap(seeds, [](bool) {});
  swarm.simulator().run();

  const auto cid = multiformats::Cid::from_data(
      multiformats::Multicodec::kRaw, random_bytes(16, 5));
  int calls = 0;
  node::RetrievalTrace trace;
  trace.ok = true;
  node.retrieve(cid, [&](node::RetrievalTrace t) {
    ++calls;
    trace = t;
  });
  swarm.simulator().run();
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(trace.ok);
  // A failed walk that overlapped the window is not on the critical path.
  EXPECT_EQ(trace.provider_walk, 0);
}

TEST(ParallelRetrievalTest, BitswapHitWinsAndTheLateWalkIsDropped) {
  TestSwarm swarm(80, /*seed=*/89);
  std::vector<dht::PeerRef> seeds;
  for (int i = 0; i < 6; ++i) seeds.push_back(swarm.ref(i));

  node::IpfsNodeConfig publisher_config;
  publisher_config.net.region = 0;
  publisher_config.identity_seed = 6;
  node::IpfsNode publisher(swarm.network(), publisher_config);

  node::IpfsNodeConfig retriever_config;
  retriever_config.net.region = 0;
  retriever_config.identity_seed = 7;
  retriever_config.parallel_dht_lookup = true;
  node::IpfsNode retriever(swarm.network(), retriever_config);

  publisher.bootstrap(seeds, [](bool) {});
  retriever.bootstrap(seeds, [](bool) {});
  swarm.simulator().run();

  node::PublishTrace publish_trace;
  publisher.publish(random_bytes(64 * 1024, 101),
                    [&](node::PublishTrace t) { publish_trace = t; });
  swarm.simulator().run();
  ASSERT_TRUE(publish_trace.ok);

  // Connected to the publisher, the Bitswap window finds the holder in
  // one round trip, long before the provider walk returns.
  swarm.network().connect(retriever.node(), publisher.node(),
                          [](bool, sim::Duration) {});
  swarm.simulator().run();

  int calls = 0;
  node::RetrievalTrace trace;
  retriever.retrieve(publish_trace.cid, [&](node::RetrievalTrace t) {
    ++calls;
    trace = t;
  });
  swarm.simulator().run();
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(trace.ok);
  EXPECT_TRUE(trace.bitswap_hit);
  // The walk's late success is dropped: no routing source, no walk time.
  EXPECT_EQ(trace.routing_source, routing::Source::kNone);
  EXPECT_EQ(trace.provider_walk, 0);
  EXPECT_GT(trace.bitswap_discovery, 0);
}

// --------------------------------------------------------------------------
// Capped replication
// --------------------------------------------------------------------------

TEST(ReplicationCapTest, ProvideStoresAtMostMaxRecords) {
  TestSwarm swarm(60, /*seed=*/83);
  std::vector<dht::PeerRef> seeds;
  for (int i = 0; i < 6; ++i) seeds.push_back(swarm.ref(i));
  node::IpfsNodeConfig config;
  config.net.region = 0;
  config.identity_seed = 5;
  node::IpfsNode node(swarm.network(), config);
  node.bootstrap(seeds, [](bool) {});
  swarm.simulator().run();

  const auto import = node.add(random_bytes(64 * 1024, 7));
  node::PublishTrace trace;
  node.provide(import.root, [&](node::PublishTrace t) { trace = t; }, 5);
  swarm.simulator().run();
  EXPECT_TRUE(trace.ok);
  EXPECT_LE(trace.provider_records_sent, 5);
  EXPECT_GE(trace.provider_records_sent, 1);
}

// --------------------------------------------------------------------------
// Gateway paths
// --------------------------------------------------------------------------

TEST(GatewayPathTest, ServesFileInsidePinnedTree) {
  TestSwarm swarm(50, /*seed=*/89);
  std::vector<dht::PeerRef> seeds;
  for (int i = 0; i < 6; ++i) seeds.push_back(swarm.ref(i));
  gateway::GatewayConfig config;
  config.node.net.region = 0;
  config.node.identity_seed = 6;
  gateway::Gateway gateway(swarm.network(), config);
  gateway.bootstrap(seeds, [](bool) {});
  swarm.simulator().run();

  // Pin a site tree into the gateway node store.
  const std::vector<merkledag::TreeFile> site = {
      {"index.html", random_bytes(2000, 11)},
      {"assets/app.js", random_bytes(3000, 12)},
  };
  const auto root = merkledag::import_tree(gateway.node().store(), site);
  ASSERT_TRUE(root.has_value());
  gateway.node().store().pin(*root);

  gateway::GatewayResponse response;
  gateway.handle_get_path(*root, "assets/app.js",
                          [&](gateway::GatewayResponse r) { response = r; });
  swarm.simulator().run();
  EXPECT_EQ(response.source, gateway::ServedFrom::kNodeStore);
  EXPECT_EQ(response.bytes, 3000u);

  // Missing path fails.
  gateway::GatewayResponse missing;
  missing.source = gateway::ServedFrom::kNginxCache;
  gateway.handle_get_path(*root, "assets/missing.css",
                          [&](gateway::GatewayResponse r) { missing = r; });
  swarm.simulator().run();
  EXPECT_EQ(missing.source, gateway::ServedFrom::kFailed);
}

}  // namespace
}  // namespace ipfs
