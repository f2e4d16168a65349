// DHT tests: keyspace, routing table, record stores, iterative lookups,
// publication/retrieval walks, AutoNAT and record lifecycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "dht/dht_node.h"
#include "dht/key.h"
#include "dht/record_store.h"
#include "dht/routing_table.h"
#include "testutil.h"
#include "transport/sim_transport.h"

namespace ipfs::dht {
namespace {

using testutil::synthetic_address;
using testutil::synthetic_peer_id;
using testutil::TestSwarm;

// --------------------------------------------------------------------------
// Key
// --------------------------------------------------------------------------

TEST(KeyTest, DistanceToSelfIsZero) {
  const Key key = Key::for_peer(synthetic_peer_id(1));
  const auto distance = key.distance_to(key);
  for (const auto byte : distance) EXPECT_EQ(byte, 0);
  EXPECT_EQ(key.common_prefix_len(key), 256);
}

TEST(KeyTest, DistanceIsSymmetric) {
  const Key a = Key::for_peer(synthetic_peer_id(1));
  const Key b = Key::for_peer(synthetic_peer_id(2));
  EXPECT_EQ(a.distance_to(b), b.distance_to(a));
}

TEST(KeyTest, CidsAndPeersShareTheKeySpace) {
  // Section 2.3: CIDs and PeerIDs are indexed by SHA-256 of their binary
  // representations, placing both in one 256-bit key space.
  const std::vector<std::uint8_t> data = {1, 2, 3};
  const auto cid = multiformats::Cid::from_data(
      multiformats::Multicodec::kRaw, data);
  const Key cid_key = Key::for_cid(cid);
  const Key peer_key = Key::for_peer(synthetic_peer_id(7));
  EXPECT_NE(cid_key, peer_key);
  EXPECT_GE(cid_key.common_prefix_len(peer_key), 0);
}

TEST(KeyTest, CloserToOrdersByXor) {
  const Key target = Key::for_peer(synthetic_peer_id(0));
  const Key a = Key::for_peer(synthetic_peer_id(1));
  const Key b = Key::for_peer(synthetic_peer_id(2));
  // Exactly one of the two is closer (they differ).
  EXPECT_NE(a.closer_to(target, b), b.closer_to(target, a));
  // Triangle of self: target is closest to itself.
  EXPECT_TRUE(target.closer_to(target, a));
  EXPECT_FALSE(a.closer_to(target, target));
}

TEST(KeyTest, CommonPrefixLenMatchesDistance) {
  const Key a = Key::for_peer(synthetic_peer_id(3));
  const Key b = Key::for_peer(synthetic_peer_id(4));
  const int cpl = a.common_prefix_len(b);
  const auto distance = a.distance_to(b);
  // The first cpl bits of the distance are zero, bit cpl is one.
  const int byte = cpl / 8;
  const int bit = cpl % 8;
  ASSERT_LT(byte, 32);
  EXPECT_NE(distance[byte] & (0x80 >> bit), 0);
  for (int i = 0; i < byte; ++i) EXPECT_EQ(distance[i], 0);
}

// --------------------------------------------------------------------------
// RoutingTable
// --------------------------------------------------------------------------

PeerRef make_ref(std::uint64_t n) {
  return PeerRef{synthetic_peer_id(n), static_cast<sim::NodeId>(n),
                 {synthetic_address(static_cast<std::uint32_t>(n))}};
}

TEST(RoutingTableTest, InsertAndContains) {
  PeerDirectory directory;
  RoutingTable table(directory, Key::for_peer(synthetic_peer_id(0)));
  EXPECT_TRUE(table.upsert(make_ref(1)));
  EXPECT_TRUE(table.contains(synthetic_peer_id(1)));
  EXPECT_FALSE(table.contains(synthetic_peer_id(2)));
  EXPECT_EQ(table.size(), 1u);
}

TEST(RoutingTableTest, RejectsSelf) {
  PeerDirectory directory;
  RoutingTable table(directory, Key::for_peer(synthetic_peer_id(0)));
  EXPECT_FALSE(table.upsert(make_ref(0)));
  EXPECT_EQ(table.size(), 0u);
}

TEST(RoutingTableTest, UpsertRefreshesExistingEntry) {
  PeerDirectory directory;
  RoutingTable table(directory, Key::for_peer(synthetic_peer_id(0)));
  PeerRef ref = make_ref(1);
  table.upsert(ref);
  ref.node = 99;  // address change
  EXPECT_TRUE(table.upsert(ref));
  EXPECT_EQ(table.size(), 1u);
  const auto peers = table.all_peers();
  ASSERT_EQ(peers.size(), 1u);
  EXPECT_EQ(peers[0].node, 99u);
}

TEST(RoutingTableTest, BucketsCapAtK) {
  PeerDirectory directory;
  RoutingTable table(directory, Key::for_peer(synthetic_peer_id(0)));
  // Insert far more peers than one bucket holds; most land in the
  // shallow buckets (cpl 0,1,2...), which must each cap at 20.
  for (std::uint64_t i = 1; i <= 2000; ++i) table.upsert(make_ref(i));
  for (std::size_t b = 0; b < kBucketCount; ++b)
    EXPECT_LE(table.bucket_size(b), kBucketSize);
  EXPECT_LT(table.size(), 2000u);
  EXPECT_GT(table.size(), 50u);
}

TEST(RoutingTableTest, ClosestReturnsSortedByDistance) {
  PeerDirectory directory;
  RoutingTable table(directory, Key::for_peer(synthetic_peer_id(0)));
  for (std::uint64_t i = 1; i <= 200; ++i) table.upsert(make_ref(i));
  const Key target = Key::for_peer(synthetic_peer_id(12345));
  const auto closest = table.closest(target, 20);
  ASSERT_EQ(closest.size(), 20u);
  for (std::size_t i = 1; i < closest.size(); ++i) {
    const Key prev = Key::for_peer(closest[i - 1].id);
    const Key cur = Key::for_peer(closest[i].id);
    EXPECT_TRUE(prev.distance_to(target) <= cur.distance_to(target));
  }
  // The first result must be the global argmin over the table.
  const Key best = Key::for_peer(closest[0].id);
  for (const auto& peer : table.all_peers()) {
    const Key key = Key::for_peer(peer.id);
    EXPECT_TRUE(best.distance_to(target) <= key.distance_to(target));
  }
}

TEST(RoutingTableTest, RemoveEvictsPeer) {
  PeerDirectory directory;
  RoutingTable table(directory, Key::for_peer(synthetic_peer_id(0)));
  table.upsert(make_ref(1));
  table.upsert(make_ref(2));
  table.remove(synthetic_peer_id(1));
  EXPECT_FALSE(table.contains(synthetic_peer_id(1)));
  EXPECT_TRUE(table.contains(synthetic_peer_id(2)));
  EXPECT_EQ(table.size(), 1u);
}

// --------------------------------------------------------------------------
// RoutingTable over a PeerDirectory: records are per identity, not per node
// --------------------------------------------------------------------------

TEST(RoutingTableTest, IdentitiesSharingOneNodeKeepTheirOwnRecords) {
  // Like an attacker's Sybils: five identities behind one front node,
  // each with its own address.
  constexpr sim::NodeId kFront = 7;
  std::vector<PeerRef> sybils;
  for (std::uint64_t n = 1; n <= 5; ++n)
    sybils.push_back(PeerRef{synthetic_peer_id(n), kFront,
                             {synthetic_address(100 + n)}});
  PeerDirectory directory;
  RoutingTable table(directory, Key::for_peer(synthetic_peer_id(0)));
  for (const auto& sybil : sybils) ASSERT_TRUE(table.upsert(sybil));

  const auto held = table.all_peers();
  ASSERT_EQ(held.size(), sybils.size());
  for (const auto& sybil : sybils) {
    const auto it = std::find(held.begin(), held.end(), sybil);
    ASSERT_NE(it, held.end());
    EXPECT_EQ(it->node, kFront);
    EXPECT_EQ(it->addresses, sybil.addresses);

    const auto closest = table.closest(Key::for_peer(sybil.id), 1);
    ASSERT_EQ(closest.size(), 1u);
    EXPECT_EQ(closest[0].id, sybil.id);
    EXPECT_EQ(closest[0].node, kFront);
    EXPECT_EQ(closest[0].addresses, sybil.addresses);
  }
}

TEST(RoutingTableTest, RefreshThroughOneTableShowsInAnother) {
  PeerDirectory directory;
  RoutingTable first(directory, Key::for_peer(synthetic_peer_id(0)));
  RoutingTable second(directory, Key::for_peer(synthetic_peer_id(1000)));
  PeerRef ref = make_ref(5);
  ASSERT_TRUE(first.upsert(ref));
  ASSERT_TRUE(second.upsert(ref));

  ref.node = 99;
  ref.addresses = {synthetic_address(99)};
  ASSERT_TRUE(first.upsert(ref));
  const auto peers = second.all_peers();
  ASSERT_EQ(peers.size(), 1u);
  EXPECT_EQ(peers[0].id, ref.id);
  EXPECT_EQ(peers[0].node, 99u);
  EXPECT_EQ(peers[0].addresses, ref.addresses);
}

TEST(RoutingTableTest, EntriesSurviveDirectoryGrowth) {
  PeerDirectory directory;
  RoutingTable table(directory, Key::for_peer(synthetic_peer_id(0)));
  for (std::uint64_t n = 1; n <= 200; ++n) table.upsert(make_ref(n));
  const auto before = table.all_peers();

  // 10k more identities, reusing the table's peers' node handles with
  // other ids and addresses: the directory reallocates many times over.
  for (std::uint64_t n = 0; n < 10'000; ++n) {
    const PeerRef other{synthetic_peer_id(10'000 + n),
                        static_cast<sim::NodeId>(1 + n % 200),
                        {synthetic_address(static_cast<std::uint32_t>(
                            10'000 + n))}};
    directory.intern(other, Key::for_peer(other.id));
  }
  ASSERT_GT(directory.size(), 10'000u);

  const auto after = table.all_peers();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].id, before[i].id);
    EXPECT_EQ(after[i].node, before[i].node);
    EXPECT_EQ(after[i].addresses, before[i].addresses);
  }
}

TEST(RoutingTableTest, WholeTableMatchesUpserts) {
  // assign() takes entries in table order: ascending bucket, then the
  // order they arrived in. Draw peers in a shuffled order, keep the first
  // k of each bucket, group them by bucket keeping that order, and the
  // table built whole must match one filled by upserting the same list.
  const Key self = Key::for_peer(synthetic_peer_id(0));
  const auto bucket_of = [&self](const Key& key) {
    return std::min<std::size_t>(self.common_prefix_len(key),
                                 kBucketCount - 1);
  };
  std::vector<std::uint64_t> order(3000);
  std::iota(order.begin(), order.end(), 1);
  std::shuffle(order.begin(), order.end(), std::mt19937_64(11));

  PeerDirectory directory;
  std::vector<RoutingTable::Entry> entries;
  std::vector<std::size_t> per_bucket(kBucketCount, 0);
  for (const std::uint64_t n : order) {
    const PeerRef ref = make_ref(n);
    const Key key = Key::for_peer(ref.id);
    if (per_bucket[bucket_of(key)]++ < kBucketSize)
      entries.push_back({key, directory.intern(ref, key)});
  }
  std::ranges::stable_sort(entries, std::less<>{},
                           [&](const RoutingTable::Entry& entry) {
                             return bucket_of(entry.key);
                           });

  RoutingTable upserted(directory, self);
  for (const auto& entry : entries) {
    const PeerRef peer = directory[entry.peer];
    ASSERT_TRUE(upserted.upsert(peer));
  }
  RoutingTable whole(directory, self);
  whole.assign(entries);

  const auto expect_same = [](const std::vector<PeerRef>& got,
                              const std::vector<PeerRef>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id) << "position " << i;
      EXPECT_EQ(got[i].node, want[i].node) << "position " << i;
      EXPECT_EQ(got[i].addresses, want[i].addresses) << "position " << i;
    }
  };
  EXPECT_EQ(whole.size(), entries.size());
  expect_same(whole.all_peers(), upserted.all_peers());
  for (std::size_t b = 0; b < kBucketCount; ++b)
    EXPECT_EQ(whole.bucket_size(b), upserted.bucket_size(b))
        << "bucket " << b;
  for (std::uint64_t n = 5000; n < 5008; ++n) {
    const Key target = Key::for_peer(synthetic_peer_id(n));
    for (const std::size_t count : {1, 20, 500})
      expect_same(whole.closest(target, count),
                  upserted.closest(target, count));
  }
}

// --------------------------------------------------------------------------
// RoutingTable: per-bucket IP-diversity cap (docs/ADVERSARY.md)
// --------------------------------------------------------------------------

// First `count` indices in [lo, hi) whose keys share exactly `cpl` prefix
// bits with peer 0's key — same-bucket peers from peer 0's perspective.
// synthetic_address puts n < 256 in 10.0.0.0/16 and 256 <= n < 512 in
// 10.1.0.0/16, so the range also selects the diversity class.
std::vector<std::uint64_t> same_bucket_indices(int cpl, std::uint64_t lo,
                                               std::uint64_t hi,
                                               std::size_t count) {
  const Key self = Key::for_peer(synthetic_peer_id(0));
  std::vector<std::uint64_t> out;
  for (std::uint64_t n = lo; n < hi && out.size() < count; ++n) {
    if (n == 0) continue;
    if (self.common_prefix_len(Key::for_peer(synthetic_peer_id(n))) == cpl)
      out.push_back(n);
  }
  return out;
}

TEST(RoutingTableTest, DiversityCapZeroMatchesUncappedTable) {
  // cap = 0 must be bit-identical to the pre-cap tables: same accept/
  // reject decisions, same iteration order, zero rejections.
  PeerDirectory directory;
  RoutingTable uncapped(directory, Key::for_peer(synthetic_peer_id(0)));
  RoutingTable capped(directory, Key::for_peer(synthetic_peer_id(0)), 0);
  for (std::uint64_t i = 1; i <= 500; ++i) {
    EXPECT_EQ(uncapped.upsert(make_ref(i)), capped.upsert(make_ref(i)));
  }
  EXPECT_EQ(capped.size(), uncapped.size());
  EXPECT_EQ(capped.diversity_rejections(), 0u);
  const auto lhs = uncapped.all_peers();
  const auto rhs = capped.all_peers();
  ASSERT_EQ(lhs.size(), rhs.size());
  for (std::size_t i = 0; i < lhs.size(); ++i) EXPECT_EQ(lhs[i].id, rhs[i].id);
}

TEST(RoutingTableTest, DiversityCapRejectsSamePrefixOverflow) {
  const auto peers = same_bucket_indices(0, 1, 256, 3);
  ASSERT_EQ(peers.size(), 3u);  // all in 10.0/16, all in bucket cpl=0
  PeerDirectory directory;
  RoutingTable table(directory, Key::for_peer(synthetic_peer_id(0)), 2);
  EXPECT_TRUE(table.upsert(make_ref(peers[0])));
  EXPECT_TRUE(table.upsert(make_ref(peers[1])));
  EXPECT_FALSE(table.upsert(make_ref(peers[2])));  // third same-/16 entry
  EXPECT_FALSE(table.contains(synthetic_peer_id(peers[2])));
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.diversity_rejections(), 1u);
}

TEST(RoutingTableTest, RefreshOfExistingEntryBypassesTheCap) {
  const auto peers = same_bucket_indices(0, 1, 256, 1);
  ASSERT_EQ(peers.size(), 1u);
  PeerDirectory directory;
  RoutingTable table(directory, Key::for_peer(synthetic_peer_id(0)), 1);
  PeerRef ref = make_ref(peers[0]);
  EXPECT_TRUE(table.upsert(ref));
  // The peer saturates its own class; refreshing it is not an insert and
  // must neither fail nor count as a rejection.
  ref.node = 77;
  EXPECT_TRUE(table.upsert(ref));
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.diversity_rejections(), 0u);
  EXPECT_EQ(table.all_peers()[0].node, 77u);
}

TEST(RoutingTableTest, RemoveFreesTheDiversitySlot) {
  const auto peers = same_bucket_indices(0, 1, 256, 2);
  ASSERT_EQ(peers.size(), 2u);
  PeerDirectory directory;
  RoutingTable table(directory, Key::for_peer(synthetic_peer_id(0)), 1);
  EXPECT_TRUE(table.upsert(make_ref(peers[0])));
  EXPECT_FALSE(table.upsert(make_ref(peers[1])));
  table.remove(synthetic_peer_id(peers[0]));
  // The class slot is free again: the previously rejected peer enters.
  EXPECT_TRUE(table.upsert(make_ref(peers[1])));
  EXPECT_TRUE(table.contains(synthetic_peer_id(peers[1])));
}

TEST(RoutingTableTest, DistinctPrefixesDoNotShareTheCap) {
  // One peer from 10.0/16 and one from 10.1/16, same bucket: a cap of 1
  // admits both — the cap is per /16 class, not per bucket total.
  const auto first = same_bucket_indices(0, 1, 256, 1);
  const auto second = same_bucket_indices(0, 256, 512, 1);
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  PeerDirectory directory;
  RoutingTable table(directory, Key::for_peer(synthetic_peer_id(0)), 1);
  EXPECT_TRUE(table.upsert(make_ref(first[0])));
  EXPECT_TRUE(table.upsert(make_ref(second[0])));
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.diversity_rejections(), 0u);
}

TEST(RoutingTableTest, AddressLessPeersAreExemptFromTheCap) {
  const auto peers = same_bucket_indices(0, 1, 256, 3);
  ASSERT_EQ(peers.size(), 3u);
  PeerDirectory directory;
  RoutingTable table(directory, Key::for_peer(synthetic_peer_id(0)), 1);
  for (const auto n : peers) {
    PeerRef bare{synthetic_peer_id(n), static_cast<sim::NodeId>(n), {}};
    EXPECT_FALSE(RoutingTable::diversity_class(bare).has_value());
    EXPECT_TRUE(table.upsert(bare));  // unclassifiable: cap cannot apply
  }
  EXPECT_EQ(table.size(), peers.size());
  EXPECT_EQ(table.diversity_rejections(), 0u);
}

TEST(RoutingTableTest, DiversityClassIsTheFirstTwoOctets) {
  const auto cls = RoutingTable::diversity_class(make_ref(7));
  ASSERT_TRUE(cls.has_value());
  EXPECT_EQ(*cls, (10u << 8) | 0u);  // synthetic_address(7) = 10.0.7.1
  const auto far_cls = RoutingTable::diversity_class(make_ref(256 + 7));
  ASSERT_TRUE(far_cls.has_value());
  EXPECT_EQ(*far_cls, (10u << 8) | 1u);  // 10.1.7.1
}

// --------------------------------------------------------------------------
// RecordStore
// --------------------------------------------------------------------------

TEST(RecordStoreTest, ProvidersExpireAfter24Hours) {
  RecordStore store;
  const Key key = Key::for_peer(synthetic_peer_id(50));
  store.add_provider(key, ProviderRecord{make_ref(1), sim::hours(0)});
  EXPECT_EQ(store.providers(key, sim::hours(23)).size(), 1u);
  EXPECT_EQ(store.providers(key, sim::hours(25)).size(), 0u);
  EXPECT_EQ(store.provider_key_count(), 0u);  // pruned
}

TEST(RecordStoreTest, RepublishRefreshesExpiry) {
  RecordStore store;
  const Key key = Key::for_peer(synthetic_peer_id(51));
  store.add_provider(key, ProviderRecord{make_ref(1), sim::hours(0)});
  // Republish at the 12 h mark (kRepublishInterval).
  store.add_provider(key, ProviderRecord{make_ref(1), sim::hours(12)});
  EXPECT_EQ(store.providers(key, sim::hours(30)).size(), 1u);
  EXPECT_EQ(store.providers(key, sim::hours(37)).size(), 0u);
}

TEST(RecordStoreTest, MultipleProvidersPerKey) {
  RecordStore store;
  const Key key = Key::for_peer(synthetic_peer_id(52));
  store.add_provider(key, ProviderRecord{make_ref(1), 0});
  store.add_provider(key, ProviderRecord{make_ref(2), 0});
  store.add_provider(key, ProviderRecord{make_ref(1), 0});  // duplicate
  EXPECT_EQ(store.providers(key, sim::hours(1)).size(), 2u);
}

TEST(RecordStoreTest, ExpirySweepDropsOldRecords) {
  RecordStore store;
  for (std::uint64_t i = 0; i < 10; ++i) {
    store.add_provider(Key::for_peer(synthetic_peer_id(100 + i)),
                       ProviderRecord{make_ref(i), sim::hours(i)});
  }
  // At t = 30 h, records born before 6 h are expired.
  const auto removed = store.expire_providers(sim::hours(30));
  EXPECT_EQ(removed, 6u);
  EXPECT_EQ(store.provider_key_count(), 4u);
}

TEST(RecordStoreTest, ValueRecordsKeepHighestSequence) {
  RecordStore store;
  const Key key = Key::for_peer(synthetic_peer_id(60));
  EXPECT_TRUE(store.put_value(key, ValueRecord{{1}, 5, 0}));
  EXPECT_FALSE(store.put_value(key, ValueRecord{{2}, 3, 0}));  // stale
  EXPECT_TRUE(store.put_value(key, ValueRecord{{3}, 9, 0}));
  const auto value = store.get_value(key);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->sequence, 9u);
  EXPECT_EQ(value->value, std::vector<std::uint8_t>{3});
}

// --------------------------------------------------------------------------
// DHT walks over a swarm
// --------------------------------------------------------------------------

TEST(DhtSwarmTest, ProvideStoresRecordsOnClosestPeers) {
  TestSwarm swarm(60);
  const Key key = Key::hash_of(std::vector<std::uint8_t>{9, 9, 9});

  DhtNode::ProvideResult result;
  swarm.node(0).provide(key, [&](DhtNode::ProvideResult r) { result = r; });
  swarm.simulator().run();

  EXPECT_TRUE(result.ok);
  EXPECT_GT(result.stores_sent, 10);
  EXPECT_GT(result.walk, 0);
  // The walk leaves connections to the closest peers open, so the
  // fire-and-forget batch can complete instantly at this layer (the full
  // node's connection manager changes that; see node tests).
  EXPECT_GE(result.rpc_batch, 0);
  EXPECT_EQ(result.total, result.walk + result.rpc_batch);

  // The record must be discoverable on peers close to the key.
  int holders = 0;
  for (std::size_t i = 0; i < swarm.size(); ++i) {
    if (!swarm.node(i)
             .record_store()
             .providers(key, swarm.simulator().now())
             .empty())
      ++holders;
  }
  EXPECT_EQ(holders, result.stores_sent);
}

TEST(DhtSwarmTest, ProvideBatchEndsWithItsSlowestDial) {
  // Every dial of a provider-record batch starts at once, and the batch
  // ends when the last one resolves: one undialable target holds it open
  // for the whole dial timeout.
  TestSwarm swarm(30);
  const Key key = Key::hash_of(std::vector<std::uint8_t>{0x44});
  std::vector<PeerRef> targets;
  for (std::size_t i = 1; i <= kReplication; ++i)
    targets.push_back(swarm.ref(i));
  swarm.network().set_dialable(swarm.ref(7).node, false);

  std::optional<DhtNode::StoreBatchResult> batch;
  swarm.node(0).store_provider_records(
      key, targets, [&](DhtNode::StoreBatchResult b) { batch = b; });
  swarm.simulator().run();

  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->attempted, 20);
  EXPECT_EQ(batch->sent, 19);
  EXPECT_GE(batch->elapsed, sim::dial_timeout(sim::Transport::kTcp));
}

TEST(DhtSwarmTest, FindProvidersDiscoversPublishedContent) {
  TestSwarm swarm(60);
  const Key key = Key::hash_of(std::vector<std::uint8_t>{1, 2, 3, 4});

  bool provided = false;
  swarm.node(3).provide(key,
                        [&](DhtNode::ProvideResult r) { provided = r.ok; });
  swarm.simulator().run();
  ASSERT_TRUE(provided);

  LookupResult lookup;
  swarm.node(42).find_providers(key, [&](LookupResult r) { lookup = r; });
  swarm.simulator().run();

  ASSERT_FALSE(lookup.providers.empty());
  EXPECT_EQ(lookup.providers[0].provider.id, swarm.ref(3).id);
  EXPECT_GT(lookup.elapsed, 0);
}

TEST(DhtSwarmTest, DuplicateProviderRecordsAreDroppedByPeerId) {
  // Replicated resolvers hand back overlapping provider sets; a response
  // repeating the same provider must collapse to one dial candidate.
  scenario::Scenario scenario = scenario::ScenarioBuilder()
                                    .peers(2)
                                    .seed(7)
                                    .single_region(10.0)
                                    .build();
  sim::Simulator& sim = scenario.simulator();
  sim::Network& net = scenario.network();
  const sim::NodeId requester = scenario.node(0);
  const sim::NodeId server = scenario.node(1);

  net.set_request_handler(
      server,
      [](sim::NodeId, const sim::MessagePtr& message, auto respond) {
        ASSERT_NE(dynamic_cast<const GetProvidersRequest*>(message.get()),
                  nullptr);
        auto response = std::make_shared<GetProvidersResponse>();
        response->providers.push_back(ProviderRecord{make_ref(10), 0});
        response->providers.push_back(ProviderRecord{make_ref(10), 0});
        response->providers.push_back(ProviderRecord{make_ref(11), 0});
        respond(std::move(response), 100);
      });

  transport::SimTransport requester_transport(net, requester);
  LookupHost host;
  host.transport = &requester_transport;
  host.self_ref = PeerRef{synthetic_peer_id(999), requester,
                          {synthetic_address(999)}};
  LookupResult result;
  const Key key = Key::hash_of(std::vector<std::uint8_t>{7, 7, 7});
  auto lookup = Lookup::start(
      host, LookupType::kGetProviders, key,
      {PeerRef{synthetic_peer_id(1), server, {synthetic_address(1)}}},
      [&](LookupResult r) { result = std::move(r); });
  sim.run();

  ASSERT_TRUE(result.completed);
  ASSERT_EQ(result.providers.size(), 2u);
  EXPECT_NE(result.providers[0].provider.id,
            result.providers[1].provider.id);
  EXPECT_EQ(
      net.metrics().counter_value("dht.lookup.duplicate_providers_dropped"),
      1u);
}

TEST(DhtSwarmTest, FindProvidersFailsForUnpublishedKey) {
  TestSwarm swarm(40);
  const Key key = Key::hash_of(std::vector<std::uint8_t>{0xde, 0xad});
  LookupResult lookup;
  lookup.providers.push_back({});  // sentinel: must be cleared by callback
  swarm.node(5).find_providers(key, [&](LookupResult r) { lookup = r; });
  swarm.simulator().run();
  EXPECT_TRUE(lookup.providers.empty());
  EXPECT_TRUE(lookup.completed);
}

TEST(DhtSwarmTest, FindPeerResolvesPeerAddress) {
  TestSwarm swarm(60);
  std::optional<PeerRef> found;
  swarm.node(7).find_peer(swarm.ref(33).id,
                          [&](std::optional<PeerRef> peer, LookupResult) {
                            found = peer;
                          });
  swarm.simulator().run();
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->id, swarm.ref(33).id);
  EXPECT_EQ(found->node, swarm.ref(33).node);
}

TEST(DhtSwarmTest, RetrievalWalkIsFasterThanPublicationWalk) {
  // Section 6.2: a retrieval walk terminates at the first record-holding
  // node, a publication walk must find all 20 closest peers.
  TestSwarm swarm(100);
  const Key key = Key::hash_of(std::vector<std::uint8_t>{42});

  DhtNode::ProvideResult publish;
  swarm.node(0).provide(key, [&](DhtNode::ProvideResult r) { publish = r; });
  swarm.simulator().run();

  LookupResult retrieval;
  swarm.node(77).find_providers(key, [&](LookupResult r) { retrieval = r; });
  swarm.simulator().run();

  ASSERT_TRUE(publish.ok);
  ASSERT_FALSE(retrieval.providers.empty());
  EXPECT_LT(retrieval.elapsed, publish.walk);
}

TEST(DhtSwarmTest, LookupSurvivesOfflinePeers) {
  TestSwarm swarm(80, /*seed=*/7);
  const Key key = Key::hash_of(std::vector<std::uint8_t>{7, 7});

  bool provided = false;
  swarm.node(1).provide(key, [&](DhtNode::ProvideResult r) { provided = r.ok; });
  swarm.simulator().run();
  ASSERT_TRUE(provided);

  // Take a third of the swarm offline (not the requester/provider).
  for (std::size_t i = 10; i < 36; ++i)
    swarm.network().set_online(static_cast<sim::NodeId>(i), false);

  LookupResult lookup;
  swarm.node(2).find_providers(key, [&](LookupResult r) { lookup = r; });
  swarm.simulator().run();
  EXPECT_FALSE(lookup.providers.empty());
  // Dials into the offline set show up as failures, not hangs.
  EXPECT_GE(lookup.dials_failed + lookup.rpcs_failed, 0);
}

TEST(DhtSwarmTest, FailedPeersAreEvictedFromRoutingTable) {
  TestSwarm swarm(30);
  // Node 0 knows node 1; node 1 goes offline; a lookup through node 1
  // must evict it.
  swarm.node(0).routing_table().upsert(swarm.ref(1));
  ASSERT_TRUE(swarm.node(0).routing_table().contains(swarm.ref(1).id));
  swarm.network().set_online(1, false);

  const Key key = Key::for_peer(swarm.ref(1).id);
  swarm.node(0).lookup_closest(key, [](LookupResult) {});
  swarm.simulator().run();
  EXPECT_FALSE(swarm.node(0).routing_table().contains(swarm.ref(1).id));
}

TEST(DhtSwarmTest, PutAndGetValueRoundTrip) {
  TestSwarm swarm(50);
  const Key key = Key::hash_of(std::vector<std::uint8_t>{0x11});
  const ValueRecord record{{0xca, 0xfe}, 3, 0};

  bool stored = false;
  int replicas = 0;
  swarm.node(4).put_value(key, record, [&](bool ok, int count) {
    stored = ok;
    replicas = count;
  });
  swarm.simulator().run();
  ASSERT_TRUE(stored);
  EXPECT_GT(replicas, 10);

  std::vector<ValueRecord> fetched;
  swarm.node(30).get_values(key, [&](std::vector<ValueRecord> v) {
    fetched = std::move(v);
  });
  swarm.simulator().run();
  ASSERT_FALSE(fetched.empty());
  for (const ValueRecord& copy : fetched) {
    EXPECT_EQ(copy.value, record.value);
    EXPECT_EQ(copy.sequence, 3u);
  }
}

TEST(DhtSwarmTest, ProviderRecordsExpireWithoutRepublish) {
  TestSwarm swarm(50);
  const Key key = Key::hash_of(std::vector<std::uint8_t>{0x22});
  swarm.node(0).provide(key, [](DhtNode::ProvideResult) {});
  swarm.simulator().run();

  // 25 h later (past the 24 h expiry), records must be gone.
  swarm.simulator().run_until(swarm.simulator().now() + sim::hours(25));
  swarm.simulator().run();

  LookupResult lookup;
  swarm.node(20).find_providers(key, [&](LookupResult r) { lookup = r; });
  swarm.simulator().run();
  EXPECT_TRUE(lookup.providers.empty());
}

TEST(DhtSwarmTest, RepublishKeepsRecordsAlive) {
  TestSwarm swarm(50);
  const Key key = Key::hash_of(std::vector<std::uint8_t>{0x33});
  swarm.node(0).provide(key, [](DhtNode::ProvideResult) {});
  swarm.node(0).start_reproviding(key);
  swarm.simulator().run();

  // 30 h later, with 12 h republishes, the record must still resolve.
  swarm.simulator().run_until(swarm.simulator().now() + sim::hours(30));

  LookupResult lookup;
  swarm.node(20).find_providers(key, [&](LookupResult r) { lookup = r; });
  swarm.simulator().run();
  EXPECT_FALSE(lookup.providers.empty());
  swarm.node(0).stop_reproviding(key);
}

// --------------------------------------------------------------------------
// Bootstrap and AutoNAT
// --------------------------------------------------------------------------

TEST(DhtBootstrapTest, DialablePeerUpgradesToServer) {
  TestSwarm swarm(40);
  transport::SimTransport endpoint(swarm.network(), {.region = 0});
  DhtNode joiner(endpoint, synthetic_peer_id(1000), {synthetic_address(1000)});
  joiner.attach_to_network();
  EXPECT_EQ(joiner.mode(), DhtNode::Mode::kClient);

  bool ok = false;
  std::vector<PeerRef> seeds;
  for (int i = 0; i < 6; ++i) seeds.push_back(swarm.ref(i));
  joiner.bootstrap(seeds, [&](bool success) { ok = success; });
  swarm.simulator().run();

  EXPECT_TRUE(ok);
  EXPECT_EQ(joiner.mode(), DhtNode::Mode::kServer);
  EXPECT_GT(joiner.routing_table().size(), 6u);
}

TEST(DhtBootstrapTest, NatPeerStaysClient) {
  TestSwarm swarm(40);
  transport::SimTransport endpoint(swarm.network(),
                                   {.region = 0, .dialable = false});
  DhtNode joiner(endpoint, synthetic_peer_id(1001), {synthetic_address(1001)});
  joiner.attach_to_network();

  bool ok = false;
  std::vector<PeerRef> seeds;
  for (int i = 0; i < 6; ++i) seeds.push_back(swarm.ref(i));
  joiner.bootstrap(seeds, [&](bool success) { ok = success; });
  swarm.simulator().run();

  EXPECT_TRUE(ok);
  EXPECT_EQ(joiner.mode(), DhtNode::Mode::kClient);
}

TEST(DhtBootstrapTest, AutonatThresholdIsMoreThanThree) {
  // Paper Section 2.3: "If more than three peers can connect to the
  // newly joining peer, then the new peer upgrades... to act as a
  // server node." Exactly three successful dial-backs must NOT suffice.
  TestSwarm swarm(40);
  transport::SimTransport endpoint(swarm.network(), {.region = 0});
  DhtNode joiner(endpoint, synthetic_peer_id(1003), {synthetic_address(1003)});
  joiner.attach_to_network();

  // Four seeds, one of which is stalled (it takes requests and never
  // answers): its dial-back probe times out, leaving exactly three
  // positive answers.
  std::vector<PeerRef> seeds;
  for (int i = 0; i < 4; ++i) seeds.push_back(swarm.ref(i));
  swarm.network().set_request_handler(
      swarm.ref(3).node, [](sim::NodeId, const sim::MessagePtr&, auto) {});

  bool done = false;
  joiner.bootstrap(seeds, [&](bool) { done = true; });
  swarm.simulator().run();
  EXPECT_TRUE(done);
  EXPECT_EQ(joiner.mode(), DhtNode::Mode::kClient);  // 3 is not > 3
  swarm.node(3).attach_to_network();  // answers again

  // With a fourth confirming peer the same joiner upgrades.
  transport::SimTransport endpoint2(swarm.network(), {.region = 0});
  DhtNode joiner2(endpoint2, synthetic_peer_id(1004),
                  {synthetic_address(1004)});
  joiner2.attach_to_network();
  joiner2.bootstrap(seeds, [](bool) {});
  swarm.simulator().run();
  EXPECT_EQ(joiner2.mode(), DhtNode::Mode::kServer);  // 4 > 3
}

TEST(DhtBootstrapTest, BootstrapFailsWithNoSeeds) {
  TestSwarm swarm(5);
  transport::SimTransport endpoint(swarm.network(), {.region = 0});
  DhtNode joiner(endpoint, synthetic_peer_id(1002), {synthetic_address(1002)});
  bool called = false, ok = true;
  joiner.bootstrap({}, [&](bool success) {
    called = true;
    ok = success;
  });
  swarm.simulator().run();
  EXPECT_TRUE(called);
  EXPECT_FALSE(ok);
}

TEST(DhtSwarmTest, LookupTerminatesWithMajorityUndialableClosestPeers) {
  // Paper Sections 5-6: most DHT routing entries point at unreachable
  // (NAT'ed) peers, and walks succeed anyway because failed dials are
  // bounded by the transport timeout, not retried forever. Make >50% of
  // the swarm undialable and check the walk still terminates, well under
  // the 3 min deadline and with a bounded query count.
  TestSwarm swarm(60, /*seed=*/19);
  for (std::size_t i = 10; i < 45; ++i)  // 35 of 60 peers NAT'ed
    swarm.network().set_dialable(static_cast<sim::NodeId>(i), false);

  const Key key = Key::hash_of(std::vector<std::uint8_t>{0x5a});
  LookupResult result;
  bool done = false;
  const sim::Time start = swarm.simulator().now();
  swarm.node(0).lookup_closest(key, [&](LookupResult r) {
    result = std::move(r);
    done = true;
  });
  swarm.simulator().run();

  ASSERT_TRUE(done);
  const sim::Duration elapsed = swarm.simulator().now() - start;
  EXPECT_LT(elapsed, kLookupDeadline);
  EXPECT_FALSE(result.closest.empty());
  // The undialable majority showed up as dial failures...
  EXPECT_GT(result.dials_failed, 10);
  // ...but the walk stayed bounded: it can visit at most the whole swarm.
  EXPECT_LE(result.rpcs_sent + result.dials_failed, 60);
  // Every reported closest peer actually responded, hence is dialable.
  for (const auto& peer : result.closest)
    EXPECT_TRUE(swarm.network().config(peer.node).dialable);
}

TEST(DhtSwarmTest, CrashAbortsInFlightLookupsWithoutCallback) {
  TestSwarm swarm(40, /*seed=*/23);
  // Slow the walk down so the crash catches it mid-flight: every peer
  // except the requester's first hops never answers a request, forcing
  // 10 s RPC timeouts.
  for (std::size_t i = 20; i < 40; ++i)
    swarm.network().set_request_handler(
        static_cast<sim::NodeId>(i),
        [](sim::NodeId, const sim::MessagePtr&, auto) {});

  bool fired = false;
  const Key key = Key::hash_of(std::vector<std::uint8_t>{0x77});
  swarm.node(0).lookup_closest(key, [&](LookupResult) { fired = true; });

  swarm.simulator().schedule_after(sim::seconds(2), [&] {
    swarm.network().set_online(swarm.ref(0).node, false);
    swarm.node(0).handle_crash();
  });
  swarm.simulator().run();

  // The crashed node's walk must not fire its callback — not even at the
  // 3 min lookup deadline (the deadline timer is lookup-owned, so the
  // network's epoch muting alone cannot stop it).
  EXPECT_FALSE(fired);
  EXPECT_GT(swarm.simulator().now(), sim::seconds(2));
  EXPECT_LT(swarm.simulator().now(), kLookupDeadline);
}

TEST(DhtClientTest, ClientsDoNotServeProviderQueries) {
  TestSwarm swarm(30);
  swarm.node(9).force_mode(DhtNode::Mode::kClient);
  // Push a record directly into the client's store; queries must not
  // surface it because clients ignore DHT requests.
  const Key key = Key::hash_of(std::vector<std::uint8_t>{0x44});
  swarm.node(9).record_store().add_provider(key,
                                            ProviderRecord{swarm.ref(9), 0});

  // Another node connects and asks directly.
  swarm.network().connect(swarm.ref(0).node, swarm.ref(9).node,
                          [](bool, sim::Duration) {});
  swarm.simulator().run();
  sim::RpcStatus status = sim::RpcStatus::kOk;
  auto request = std::make_shared<GetProvidersRequest>();
  request->key = key;
  swarm.network().request(swarm.ref(0).node, swarm.ref(9).node,
                          std::move(request), 64, sim::seconds(3),
                          [&](sim::RpcStatus s, sim::MessagePtr) {
                            status = s;
                          });
  swarm.simulator().run();
  EXPECT_EQ(status, sim::RpcStatus::kTimeout);
}

}  // namespace
}  // namespace ipfs::dht
