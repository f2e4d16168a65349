// Gateway tests: the three serving tiers (nginx cache / node store / P2P),
// cache behaviour and statistics (Section 3.4, Table 5).
#include <gtest/gtest.h>

#include "gateway/gateway.h"
#include "merkledag/unixfs.h"
#include "testutil.h"

namespace ipfs::gateway {
namespace {

using testutil::TestSwarm;

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

class GatewayTest : public ::testing::Test {
 protected:
  GatewayTest() : swarm_(80, /*seed=*/31) {
    GatewayConfig config;
    config.node.net.region = 0;
    config.node.identity_seed = 99;
    config.node.provide_after_fetch = false;
    config.nginx_cache_bytes = 2 * 1024 * 1024;
    gateway_ = std::make_unique<Gateway>(swarm_.network(), config);

    node::IpfsNodeConfig publisher_config;
    publisher_config.net.region = 0;
    publisher_config.identity_seed = 77;
    publisher_ =
        std::make_unique<node::IpfsNode>(swarm_.network(), publisher_config);

    std::vector<dht::PeerRef> seeds;
    for (int i = 0; i < 6; ++i) seeds.push_back(swarm_.ref(i));
    gateway_->bootstrap(seeds, [](bool) {});
    publisher_->bootstrap(seeds, [](bool) {});
    swarm_.simulator().run();
  }

  TestSwarm swarm_;
  std::unique_ptr<Gateway> gateway_;
  std::unique_ptr<node::IpfsNode> publisher_;
};

TEST_F(GatewayTest, PinnedContentServesFromNodeStoreInMilliseconds) {
  const auto data = random_bytes(512 * 1024, 1);
  gateway_->pin_object(data);
  const auto cid = merkledag::import_bytes(publisher_->store(), data).root;

  GatewayResponse response;
  gateway_->handle_get(cid, [&](GatewayResponse r) { response = r; });
  swarm_.simulator().run();

  EXPECT_EQ(response.source, ServedFrom::kNodeStore);
  EXPECT_EQ(response.bytes, data.size());
  // Table 5: node-store hits land in single-digit milliseconds.
  EXPECT_LT(response.latency, sim::milliseconds(24));
  EXPECT_GT(response.latency, 0);
}

TEST_F(GatewayTest, NodeStoreTierNeedsTheWholeDag) {
  // A pinned object that lost one leaf is not served from the node
  // store: the request falls through to the P2P network, where the
  // publisher holds the same bytes, and is served whole.
  const auto data = random_bytes(700 * 1024, 15);
  gateway_->pin_object(data);
  node::PublishTrace publish_trace;
  publisher_->publish(data, [&](node::PublishTrace t) { publish_trace = t; });
  swarm_.simulator().run();
  ASSERT_TRUE(publish_trace.ok);
  auto& store = gateway_->node().store();
  const auto cids = merkledag::enumerate(store, publish_trace.cid);
  ASSERT_TRUE(cids.has_value());
  ASSERT_TRUE(store.remove(cids->back()));

  GatewayResponse response;
  gateway_->handle_get(publish_trace.cid,
                       [&](GatewayResponse r) { response = r; });
  swarm_.simulator().run();

  EXPECT_EQ(response.source, ServedFrom::kP2p);
  EXPECT_EQ(response.bytes, data.size());
  EXPECT_EQ(gateway_->stats(ServedFrom::kNodeStore).requests, 0u);
}

TEST_F(GatewayTest, SecondRequestHitsNginxCache) {
  const auto data = random_bytes(256 * 1024, 2);
  gateway_->pin_object(data);
  const auto cid = blockstore::Block::from_data(
                       multiformats::Multicodec::kRaw, data)
                       .cid;

  gateway_->handle_get(cid, [](GatewayResponse) {});
  swarm_.simulator().run();
  GatewayResponse second;
  gateway_->handle_get(cid, [&](GatewayResponse r) { second = r; });
  swarm_.simulator().run();

  EXPECT_EQ(second.source, ServedFrom::kNginxCache);
  EXPECT_LT(second.latency, sim::milliseconds(1));
  EXPECT_EQ(gateway_->stats(ServedFrom::kNginxCache).requests, 1u);
  EXPECT_EQ(gateway_->stats(ServedFrom::kNodeStore).requests, 1u);
}

TEST_F(GatewayTest, UnpinnedContentFetchesFromP2pNetwork) {
  const auto data = random_bytes(512 * 1024, 3);
  node::PublishTrace publish_trace;
  publisher_->publish(data, [&](node::PublishTrace t) { publish_trace = t; });
  swarm_.simulator().run();
  ASSERT_TRUE(publish_trace.ok);

  GatewayResponse response;
  gateway_->handle_get(publish_trace.cid,
                       [&](GatewayResponse r) { response = r; });
  swarm_.simulator().run();

  EXPECT_EQ(response.source, ServedFrom::kP2p);
  EXPECT_EQ(response.bytes, data.size());
  // Table 5: non-cached requests take seconds (Bitswap window + walks).
  EXPECT_GT(response.latency, sim::seconds(1));

  // The object is now in the nginx cache; a repeat is a cache hit, and
  // the node store was NOT polluted with the fetched blocks.
  GatewayResponse repeat;
  gateway_->handle_get(publish_trace.cid,
                       [&](GatewayResponse r) { repeat = r; });
  swarm_.simulator().run();
  EXPECT_EQ(repeat.source, ServedFrom::kNginxCache);
  EXPECT_FALSE(gateway_->node().store().has(publish_trace.cid));
}

TEST_F(GatewayTest, MissingContentFails) {
  const auto cid = multiformats::Cid::from_data(
      multiformats::Multicodec::kRaw, random_bytes(10, 4));
  GatewayResponse response;
  response.source = ServedFrom::kNginxCache;
  gateway_->handle_get(cid, [&](GatewayResponse r) { response = r; });
  swarm_.simulator().run();
  EXPECT_EQ(response.source, ServedFrom::kFailed);
  EXPECT_EQ(gateway_->stats(ServedFrom::kFailed).requests, 1u);
}

TEST_F(GatewayTest, CacheEvictionFallsBackToNodeStore) {
  // Two objects that cannot both fit in the 2 MB nginx cache.
  const auto data_a = random_bytes(1536 * 1024, 5);
  const auto data_b = random_bytes(1536 * 1024, 6);
  gateway_->pin_object(data_a);
  gateway_->pin_object(data_b);
  const auto cid_a = merkledag::import_bytes(publisher_->store(), data_a).root;
  const auto cid_b = merkledag::import_bytes(publisher_->store(), data_b).root;

  gateway_->handle_get(cid_a, [](GatewayResponse) {});
  swarm_.simulator().run();
  gateway_->handle_get(cid_b, [](GatewayResponse) {});  // evicts A
  swarm_.simulator().run();

  GatewayResponse again_a;
  gateway_->handle_get(cid_a, [&](GatewayResponse r) { again_a = r; });
  swarm_.simulator().run();
  EXPECT_EQ(again_a.source, ServedFrom::kNodeStore);
  EXPECT_GT(gateway_->nginx_cache().evictions(), 0u);
}

TEST_F(GatewayTest, TierStatsAccumulateBytes) {
  const auto data = random_bytes(100 * 1024, 7);
  gateway_->pin_object(data);
  const auto cid = blockstore::Block::from_data(
                       multiformats::Multicodec::kRaw, data)
                       .cid;
  for (int i = 0; i < 3; ++i) {
    gateway_->handle_get(cid, [](GatewayResponse) {});
    swarm_.simulator().run();
  }
  EXPECT_EQ(gateway_->total_requests(), 3u);
  EXPECT_EQ(gateway_->stats(ServedFrom::kNodeStore).bytes, data.size());
  EXPECT_EQ(gateway_->stats(ServedFrom::kNginxCache).bytes, 2 * data.size());
}

// Sum over every tier, including failures. Each request must land in
// exactly one tier, so this always equals total_requests().
std::uint64_t tier_request_sum(const Gateway& gateway) {
  return gateway.stats(ServedFrom::kNginxCache).requests +
         gateway.stats(ServedFrom::kNodeStore).requests +
         gateway.stats(ServedFrom::kP2p).requests +
         gateway.stats(ServedFrom::kFailed).requests;
}

TEST_F(GatewayTest, PathRequestOverNetworkAccountsAsSingleP2pRequest) {
  // The tree lives only on the publisher; serving /ipfs/{root}/docs/readme
  // pays the full P2P pipeline. Regression: the nested serve step used to
  // count the request a second time under the node-store tier even though
  // the response was rewritten to kP2p.
  const merkledag::TreeFile file{"docs/readme.md", random_bytes(64 * 1024, 8)};
  const auto root = merkledag::import_tree(publisher_->store(), {file});
  ASSERT_TRUE(root.has_value());
  node::PublishTrace publish_trace;
  publisher_->provide(*root, [&](node::PublishTrace t) { publish_trace = t; });
  swarm_.simulator().run();
  ASSERT_TRUE(publish_trace.ok);

  GatewayResponse response;
  gateway_->handle_get_path(*root, "docs/readme.md",
                            [&](GatewayResponse r) { response = r; });
  swarm_.simulator().run();

  EXPECT_EQ(response.source, ServedFrom::kP2p);
  EXPECT_EQ(response.bytes, file.content.size());
  EXPECT_EQ(gateway_->total_requests(), 1u);
  EXPECT_EQ(gateway_->stats(ServedFrom::kP2p).requests, 1u);
  EXPECT_EQ(gateway_->stats(ServedFrom::kNodeStore).requests, 0u);
  EXPECT_EQ(tier_request_sum(*gateway_), gateway_->total_requests());

  // The metrics registry sees the same single attribution.
  const auto& registry = swarm_.network().metrics();
  EXPECT_EQ(registry.counter_value("gateway.requests"), 1u);
  EXPECT_EQ(registry.counter_value("gateway.tier.p2p.requests"), 1u);
  EXPECT_EQ(registry.counter_value("gateway.tier.node_store.requests"), 0u);
}

TEST_F(GatewayTest, FailedPathRequestsAccountOnceInTheFailedTier) {
  // Unresolvable root: the retrieval fails. Regression: the old
  // total_requests_ juggling double-counted this path.
  const auto missing = multiformats::Cid::from_data(
      multiformats::Multicodec::kRaw, random_bytes(16, 9));
  GatewayResponse network_miss;
  gateway_->handle_get_path(missing, "a/b",
                            [&](GatewayResponse r) { network_miss = r; });
  swarm_.simulator().run();
  EXPECT_EQ(network_miss.source, ServedFrom::kFailed);

  // Resolvable root, bogus sub-path: fetched, then 404.
  const merkledag::TreeFile file{"a.txt", random_bytes(4 * 1024, 10)};
  const auto root = merkledag::import_tree(publisher_->store(), {file});
  ASSERT_TRUE(root.has_value());
  node::PublishTrace publish_trace;
  publisher_->provide(*root, [&](node::PublishTrace t) { publish_trace = t; });
  swarm_.simulator().run();
  ASSERT_TRUE(publish_trace.ok);
  GatewayResponse bad_path;
  gateway_->handle_get_path(*root, "no/such/file",
                            [&](GatewayResponse r) { bad_path = r; });
  swarm_.simulator().run();
  EXPECT_EQ(bad_path.source, ServedFrom::kFailed);

  EXPECT_EQ(gateway_->total_requests(), 2u);
  EXPECT_EQ(gateway_->stats(ServedFrom::kFailed).requests, 2u);
  EXPECT_EQ(tier_request_sum(*gateway_), gateway_->total_requests());
}

TEST_F(GatewayTest, TierRequestsConserveAcrossMixedTraffic) {
  // One request through every tier: P2P miss, node-store hit, nginx hit,
  // a failure, and a path request over the network.
  const auto pinned = random_bytes(128 * 1024, 11);
  gateway_->pin_object(pinned);
  const auto pinned_cid =
      merkledag::import_bytes(publisher_->store(), pinned).root;

  const auto published = random_bytes(256 * 1024, 12);
  node::PublishTrace publish_trace;
  publisher_->publish(published,
                      [&](node::PublishTrace t) { publish_trace = t; });
  swarm_.simulator().run();
  ASSERT_TRUE(publish_trace.ok);

  const merkledag::TreeFile file{"f.bin", random_bytes(32 * 1024, 13)};
  const auto tree_root = merkledag::import_tree(publisher_->store(), {file});
  ASSERT_TRUE(tree_root.has_value());
  node::PublishTrace tree_trace;
  publisher_->provide(*tree_root,
                      [&](node::PublishTrace t) { tree_trace = t; });
  swarm_.simulator().run();
  ASSERT_TRUE(tree_trace.ok);

  gateway_->handle_get(publish_trace.cid, [](GatewayResponse) {});  // P2P
  swarm_.simulator().run();
  gateway_->handle_get(pinned_cid, [](GatewayResponse) {});  // node store
  swarm_.simulator().run();
  gateway_->handle_get(publish_trace.cid, [](GatewayResponse) {});  // nginx
  swarm_.simulator().run();
  gateway_->handle_get(multiformats::Cid::from_data(
                           multiformats::Multicodec::kRaw,
                           random_bytes(8, 14)),
                       [](GatewayResponse) {});  // failed
  swarm_.simulator().run();
  gateway_->handle_get_path(*tree_root, "f.bin",
                            [](GatewayResponse) {});  // path over network
  swarm_.simulator().run();

  EXPECT_EQ(gateway_->total_requests(), 5u);
  EXPECT_EQ(tier_request_sum(*gateway_), gateway_->total_requests());
  // And the registry agrees with the legacy tier stats.
  const auto& registry = swarm_.network().metrics();
  EXPECT_EQ(registry.counter_value("gateway.requests"),
            gateway_->total_requests());
  EXPECT_EQ(registry.counter_value("gateway.tier.nginx_cache.requests"),
            gateway_->stats(ServedFrom::kNginxCache).requests);
  EXPECT_EQ(registry.counter_value("gateway.tier.node_store.requests"),
            gateway_->stats(ServedFrom::kNodeStore).requests);
  EXPECT_EQ(registry.counter_value("gateway.tier.p2p.requests"),
            gateway_->stats(ServedFrom::kP2p).requests);
  EXPECT_EQ(registry.counter_value("gateway.tier.failed.requests"),
            gateway_->stats(ServedFrom::kFailed).requests);
}

TEST_F(GatewayTest, NegativeCacheShieldsRepeatedDeadCidCrowds) {
  const auto dead = multiformats::Cid::from_data(
      multiformats::Multicodec::kRaw, random_bytes(10, 20));

  // First crowd: five concurrent requests coalesce behind one
  // singleflight leader; every waiter fails, one pipeline is paid.
  int failures = 0;
  for (int i = 0; i < 5; ++i) {
    gateway_->handle_get(dead, [&](GatewayResponse r) {
      if (r.source == ServedFrom::kFailed) ++failures;
    });
  }
  swarm_.simulator().run();
  EXPECT_EQ(failures, 5);
  EXPECT_EQ(gateway_->negative_hits(), 0u);

  // Second crowd, inside the negative TTL: answered from the negative
  // cache at edge-hit latency — no routing walk, no Bitswap timeout.
  GatewayResponse shielded;
  gateway_->handle_get(dead, [&](GatewayResponse r) { shielded = r; });
  swarm_.simulator().run();
  EXPECT_EQ(shielded.source, ServedFrom::kFailed);
  EXPECT_LT(shielded.latency, sim::milliseconds(1));
  EXPECT_EQ(gateway_->negative_hits(), 1u);

  const auto& registry = swarm_.network().metrics();
  EXPECT_EQ(registry.counter_value("gateway.negative.hits"), 1u);
  EXPECT_EQ(registry.counter_value("gateway.negative.stores"), 1u);

  // Past the TTL the entry expires and the pipeline is paid again (the
  // content may have been published in the meantime).
  auto& simulator = swarm_.simulator();
  simulator.run_until(simulator.now() + gateway::kNegativeTtl +
                      sim::seconds(1));
  GatewayResponse expired;
  gateway_->handle_get(dead, [&](GatewayResponse r) { expired = r; });
  swarm_.simulator().run();
  EXPECT_EQ(expired.source, ServedFrom::kFailed);
  EXPECT_GT(expired.latency, sim::seconds(1));
  EXPECT_EQ(gateway_->negative_hits(), 1u);
  EXPECT_EQ(registry.counter_value("gateway.negative.stores"), 2u);
}

TEST_F(GatewayTest, EvictedEdgeEntriesServeFromSharedOrigin) {
  // A gateway with an origin tier behind its 2 MB edge cache: objects
  // evicted from the edge are re-served from origin (and refill the
  // edge) instead of re-paying the P2P pipeline.
  GatewayConfig config;
  config.node.net.region = 0;
  config.node.identity_seed = 123;
  config.node.provide_after_fetch = false;
  config.nginx_cache_bytes = 2 * 1024 * 1024;
  config.origin =
      std::make_shared<blockstore::LruBlockStore>(64ull * 1024 * 1024);
  Gateway gateway(swarm_.network(), config);
  std::vector<dht::PeerRef> seeds;
  for (int i = 0; i < 6; ++i) seeds.push_back(swarm_.ref(i));
  gateway.bootstrap(seeds, [](bool) {});
  swarm_.simulator().run();

  const auto data_a = random_bytes(1536 * 1024, 21);
  const auto data_b = random_bytes(1536 * 1024, 22);
  node::PublishTrace trace_a, trace_b;
  publisher_->publish(data_a, [&](node::PublishTrace t) { trace_a = t; });
  publisher_->publish(data_b, [&](node::PublishTrace t) { trace_b = t; });
  swarm_.simulator().run();
  ASSERT_TRUE(trace_a.ok);
  ASSERT_TRUE(trace_b.ok);

  gateway.handle_get(trace_a.cid, [](GatewayResponse) {});  // P2P, fills both
  swarm_.simulator().run();
  gateway.handle_get(trace_b.cid, [](GatewayResponse) {});  // evicts A's edge
  swarm_.simulator().run();

  GatewayResponse again;
  gateway.handle_get(trace_a.cid, [&](GatewayResponse r) { again = r; });
  swarm_.simulator().run();
  EXPECT_EQ(again.source, ServedFrom::kOriginCache);
  EXPECT_EQ(again.bytes, data_a.size());
  EXPECT_LT(again.latency, sim::milliseconds(10));
  EXPECT_EQ(gateway.stats(ServedFrom::kOriginCache).requests, 1u);
  EXPECT_GT(config.origin->used_bytes(), 0u);

  // Origin hits refill the edge: the follow-up is an edge hit.
  GatewayResponse third;
  gateway.handle_get(trace_a.cid, [&](GatewayResponse r) { third = r; });
  swarm_.simulator().run();
  EXPECT_EQ(third.source, ServedFrom::kNginxCache);
}

}  // namespace
}  // namespace ipfs::gateway
