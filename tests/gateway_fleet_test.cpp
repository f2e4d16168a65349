// Gateway fleet tests: consistent-hash ring movement bounds, bounded-load
// routing, and the fleet's two-tier (edge/origin) serving path.
#include <gtest/gtest.h>

#include "gateway/fleet.h"
#include "gateway/hash_ring.h"
#include "merkledag/merkledag.h"
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

// splitmix64: well-spread sample keys for ring-movement measurements.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

TEST(HashRingTest, RemovalMovesOnlyTheRemovedReplicasKeys) {
  constexpr std::size_t kReplicas = 8;
  constexpr std::size_t kKeys = 10'000;
  HashRing ring;
  for (std::size_t i = 0; i < kReplicas; ++i) ring.add_replica(i);

  std::vector<std::size_t> before(kKeys);
  for (std::size_t k = 0; k < kKeys; ++k) before[k] = *ring.owner(mix64(k));

  ring.remove_replica(3);
  std::size_t moved = 0;
  for (std::size_t k = 0; k < kKeys; ++k) {
    const std::size_t after = *ring.owner(mix64(k));
    if (after == before[k]) continue;
    ++moved;
    // Only keys the removed replica owned may change hands.
    EXPECT_EQ(before[k], 3u) << "key " << k;
    EXPECT_NE(after, 3u);
  }
  // The removed replica owned ~1/N of the key space; allow 50% skew.
  EXPECT_GT(moved, 0u);
  EXPECT_LE(moved, kKeys * 3 / (2 * kReplicas));

  // Re-adding restores the exact original assignment: vnode points are a
  // pure function of (replica, vnode).
  ring.add_replica(3);
  for (std::size_t k = 0; k < kKeys; ++k)
    ASSERT_EQ(*ring.owner(mix64(k)), before[k]) << "key " << k;
}

TEST(HashRingTest, AdditionOnlyStealsKeysForTheNewReplica) {
  constexpr std::size_t kKeys = 10'000;
  HashRing ring;
  for (std::size_t i = 0; i < 7; ++i) ring.add_replica(i);
  std::vector<std::size_t> before(kKeys);
  for (std::size_t k = 0; k < kKeys; ++k) before[k] = *ring.owner(mix64(k));

  ring.add_replica(7);
  std::size_t moved = 0;
  for (std::size_t k = 0; k < kKeys; ++k) {
    const std::size_t after = *ring.owner(mix64(k));
    if (after == before[k]) continue;
    ++moved;
    EXPECT_EQ(after, 7u) << "key " << k;  // movement only toward the newcomer
  }
  EXPECT_GT(moved, 0u);
  EXPECT_LE(moved, kKeys * 3 / (2 * 8));
}

TEST(HashRingTest, BoundedLoadWalkSkipsSaturatedReplicas) {
  HashRing ring(HashRingConfig{16});
  ring.add_replica(0);
  ring.add_replica(1);

  // Find a key replica 0 owns.
  std::uint64_t key = 0;
  while (*ring.owner(mix64(key)) != 0) ++key;
  const std::uint64_t hash = mix64(key);

  // Unloaded: the pick is the owner.
  const auto idle = [](std::size_t) -> std::uint64_t { return 0; };
  EXPECT_EQ(*ring.pick(hash, idle, 0), 0u);

  // Owner saturated: bound for total=10 is ceil(1.25*11/2)=7, replica 0
  // reports 10 -> the walk spills to replica 1.
  const auto loaded = [](std::size_t replica) -> std::uint64_t {
    return replica == 0 ? 10 : 0;
  };
  EXPECT_EQ(ring.load_bound(10), 7u);
  EXPECT_EQ(*ring.pick(hash, loaded, 10), 1u);

  // Everyone saturated: falls back to the owner rather than failing.
  const auto melted = [](std::size_t) -> std::uint64_t { return 100; };
  EXPECT_EQ(*ring.pick(hash, melted, 200), 0u);
}

TEST(HashRingTest, EmptyRingRoutesNowhere) {
  HashRing ring;
  EXPECT_EQ(ring.owner(123), std::nullopt);
  EXPECT_EQ(ring.pick(123, [](std::size_t) -> std::uint64_t { return 0; }, 0),
            std::nullopt);
  ring.add_replica(5);
  ring.remove_replica(5);
  EXPECT_EQ(ring.owner(123), std::nullopt);
}

class GatewayFleetTest : public ::testing::Test {
 protected:
  GatewayFleetTest() : swarm_(80, /*seed=*/37) {
    FleetConfig config;
    config.replicas = 3;
    config.replica.node.net.region = 0;
    config.replica.node.identity_seed = 500;
    config.replica.node.provide_after_fetch = false;
    config.replica.nginx_cache_bytes = 2 * 1024 * 1024;
    config.origin_cache_bytes = 32ull * 1024 * 1024;
    fleet_ = std::make_unique<GatewayFleet>(swarm_.network(), config);

    std::vector<dht::PeerRef> seeds;
    for (int i = 0; i < 6; ++i) seeds.push_back(swarm_.ref(i));
    bool ok = false;
    fleet_->bootstrap(seeds, [&](bool all_ok) { ok = all_ok; });
    swarm_.simulator().run();
    EXPECT_TRUE(ok);
  }

  TestSwarm swarm_;
  std::unique_ptr<GatewayFleet> fleet_;
};

TEST_F(GatewayFleetTest, PinnedObjectIsServedByItsRingOwner) {
  const auto data = random_bytes(256 * 1024, 1);
  const Cid cid = fleet_->pin_object(data);
  const auto owner = fleet_->route(cid);
  ASSERT_TRUE(owner.has_value());

  GatewayResponse response;
  fleet_->handle_get(cid, [&](GatewayResponse r) { response = r; });
  swarm_.simulator().run();

  EXPECT_EQ(response.source, ServedFrom::kNodeStore);
  EXPECT_EQ(response.bytes, data.size());
  EXPECT_EQ(fleet_->replica(*owner).total_requests(), 1u);
  for (std::size_t r = 0; r < fleet_->replica_count(); ++r) {
    if (r == *owner) continue;
    EXPECT_EQ(fleet_->replica(r).total_requests(), 0u);
  }
  EXPECT_EQ(fleet_->total_requests(), 1u);
  EXPECT_EQ(fleet_->routed_spills(), 0u);
  // The serve wrote through to the shared origin tier.
  EXPECT_TRUE(fleet_->origin().has(cid));
  EXPECT_DOUBLE_EQ(fleet_->fleet_absorbed_share(), 1.0);
}

TEST_F(GatewayFleetTest, RepeatHitsTheEdgeAndLabeledCountersAgree) {
  const auto data = random_bytes(128 * 1024, 2);
  const Cid cid = fleet_->pin_object(data);
  const std::size_t owner = *fleet_->route(cid);

  GatewayResponse second;
  fleet_->handle_get(cid, [](GatewayResponse) {});
  swarm_.simulator().run();
  fleet_->handle_get(cid, [&](GatewayResponse r) { second = r; });
  swarm_.simulator().run();

  EXPECT_EQ(second.source, ServedFrom::kNginxCache);
  const auto& registry = swarm_.network().metrics();
  const std::string label = "gateway.r" + std::to_string(owner);
  EXPECT_EQ(registry.counter_value(label + ".requests"), 2u);
  EXPECT_EQ(registry.counter_value(label + ".tier.nginx_cache.requests"), 1u);
  EXPECT_EQ(registry.counter_value(label + ".tier.node_store.requests"), 1u);
  // Labeled counters mirror the aggregate instruments exactly.
  EXPECT_EQ(registry.counter_value("gateway.requests"), 2u);
  EXPECT_EQ(registry.counter_value("gateway.fleet.requests"), 2u);
  EXPECT_EQ(registry.counter_value("gateway.tier.nginx_cache.requests"), 1u);
}

TEST_F(GatewayFleetTest, DrainedReplicaTrafficServesFromSharedOrigin) {
  const auto data = random_bytes(256 * 1024, 3);
  const Cid cid = fleet_->pin_object(data);
  const std::size_t owner = *fleet_->route(cid);
  fleet_->handle_get(cid, [](GatewayResponse) {});  // fills edge + origin
  swarm_.simulator().run();

  // Drain the owner (rolling restart): the key moves to a ring successor
  // whose edge is cold — but the shared origin already holds the object,
  // so the fleet still absorbs the request.
  fleet_->remove_replica(owner);
  const auto fallback = fleet_->route(cid);
  ASSERT_TRUE(fallback.has_value());
  EXPECT_NE(*fallback, owner);

  GatewayResponse rerouted;
  fleet_->handle_get(cid, [&](GatewayResponse r) { rerouted = r; });
  swarm_.simulator().run();
  EXPECT_EQ(rerouted.source, ServedFrom::kOriginCache);
  EXPECT_EQ(rerouted.bytes, data.size());
  EXPECT_EQ(fleet_->replica(*fallback).total_requests(), 1u);

  // Re-adding the drained replica restores the original routing.
  fleet_->add_replica(owner);
  EXPECT_EQ(*fleet_->route(cid), owner);
}

TEST_F(GatewayFleetTest, EmptyRingFailsTyped) {
  const auto data = random_bytes(64 * 1024, 4);
  const Cid cid = fleet_->pin_object(data);
  for (std::size_t r = 0; r < fleet_->replica_count(); ++r)
    fleet_->remove_replica(r);

  GatewayResponse response;
  response.source = ServedFrom::kNginxCache;
  fleet_->handle_get(cid, [&](GatewayResponse r) { response = r; });
  swarm_.simulator().run();
  EXPECT_EQ(response.source, ServedFrom::kFailed);
}

}  // namespace
}  // namespace ipfs::gateway
