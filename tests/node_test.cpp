// Full-node tests: address book, connection manager, and the end-to-end
// publication/retrieval pipelines with their timing decompositions.
#include <gtest/gtest.h>

#include "node/ipfs_node.h"
#include "transport/sim_transport.h"
#include "node/pinning_service.h"
#include "testutil.h"

namespace ipfs::node {
namespace {

using testutil::TestSwarm;

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

// --------------------------------------------------------------------------
// AddressBook
// --------------------------------------------------------------------------

dht::PeerRef ref_of(std::uint64_t n) {
  return dht::PeerRef{testutil::synthetic_peer_id(n),
                      static_cast<sim::NodeId>(n),
                      {testutil::synthetic_address(
                          static_cast<std::uint32_t>(n))}};
}

TEST(AddressBookTest, InsertAndFind) {
  AddressBook book;
  book.insert(ref_of(1));
  const auto found = book.find(testutil::synthetic_peer_id(1));
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->node, 1u);
  EXPECT_FALSE(book.find(testutil::synthetic_peer_id(2)).has_value());
  EXPECT_EQ(book.hits(), 1u);
  EXPECT_EQ(book.misses(), 1u);
}

TEST(AddressBookTest, CapacityEvictsLeastRecentlyUsed) {
  AddressBook book(3);
  book.insert(ref_of(1));
  book.insert(ref_of(2));
  book.insert(ref_of(3));
  book.find(testutil::synthetic_peer_id(1));  // refresh 1; LRU is now 2
  book.insert(ref_of(4));                     // evicts 2
  EXPECT_TRUE(book.find(testutil::synthetic_peer_id(1)).has_value());
  EXPECT_FALSE(book.find(testutil::synthetic_peer_id(2)).has_value());
  EXPECT_TRUE(book.find(testutil::synthetic_peer_id(4)).has_value());
  EXPECT_EQ(book.size(), 3u);
}

TEST(AddressBookTest, DefaultCapacityIs900) {
  // Paper Section 3.2: "an address book of up to 900 recently seen peers".
  AddressBook book;
  EXPECT_EQ(book.capacity(), 900u);
  for (std::uint64_t i = 0; i < 1000; ++i) book.insert(ref_of(i));
  EXPECT_EQ(book.size(), 900u);
}

TEST(AddressBookTest, InsertRefreshesAddresses) {
  AddressBook book;
  auto ref = ref_of(1);
  book.insert(ref);
  ref.node = 42;
  book.insert(ref);
  EXPECT_EQ(book.size(), 1u);
  EXPECT_EQ(book.find(testutil::synthetic_peer_id(1))->node, 42u);
}

// --------------------------------------------------------------------------
// ConnectionManager
// --------------------------------------------------------------------------

TEST(ConnectionManagerTest, TrimClosesDownToLowWater) {
  sim::Simulator sim;
  sim::LatencyModel latency({{5.0}}, 1.0, 1.0);
  sim::Network network(sim, latency, 9);
  const sim::NodeId self = network.add_node({.region = 0});
  std::vector<sim::NodeId> peers;
  for (int i = 0; i < 12; ++i) peers.push_back(network.add_node({.region = 0}));
  for (const auto peer : peers)
    network.connect(self, peer, [](bool, sim::Duration) {});
  sim.run();
  ASSERT_EQ(network.connections_of(self).size(), 12u);

  transport::SimTransport transport(network, self);
  ConnectionManager manager(transport, {.low_water = 4, .high_water = 8});
  EXPECT_EQ(manager.trim(), 8u);
  EXPECT_EQ(network.connections_of(self).size(), 4u);
  EXPECT_EQ(manager.trim(), 0u);  // below high water now
}

TEST(ConnectionManagerTest, ProtectedPeersSurviveTrimAndDisconnectAll) {
  sim::Simulator sim;
  sim::LatencyModel latency({{5.0}}, 1.0, 1.0);
  sim::Network network(sim, latency, 9);
  const sim::NodeId self = network.add_node({.region = 0});
  std::vector<sim::NodeId> peers;
  for (int i = 0; i < 6; ++i) peers.push_back(network.add_node({.region = 0}));
  for (const auto peer : peers)
    network.connect(self, peer, [](bool, sim::Duration) {});
  sim.run();

  transport::SimTransport transport(network, self);
  ConnectionManager manager(transport, {.low_water = 0, .high_water = 2});
  manager.protect(peers[0]);
  manager.trim();
  EXPECT_TRUE(network.connected(self, peers[0]));
  manager.disconnect_all();
  EXPECT_TRUE(network.connected(self, peers[0]));
  EXPECT_EQ(network.connections_of(self).size(), 1u);
}

TEST(ConnectionManagerTest, ProtectionsNest) {
  sim::Simulator sim;
  sim::LatencyModel latency({{5.0}}, 1.0, 1.0);
  sim::Network network(sim, latency, 9);
  const sim::NodeId self = network.add_node({.region = 0});
  const sim::NodeId peer = network.add_node({.region = 0});
  network.connect(self, peer, [](bool, sim::Duration) {});
  sim.run();

  // A bootstrap protection outlives a fetch's protect/unprotect pair.
  transport::SimTransport transport(network, self);
  ConnectionManager manager(transport, {});
  manager.protect(peer);
  manager.protect(peer);
  manager.unprotect(peer);
  manager.disconnect_all();
  EXPECT_TRUE(network.connected(self, peer));
}

// --------------------------------------------------------------------------
// End-to-end publish/retrieve over a swarm
// --------------------------------------------------------------------------

class IpfsNodeTest : public ::testing::Test {
 protected:
  IpfsNodeTest() : swarm_(80, /*seed=*/11) {
    IpfsNodeConfig config;
    config.net.region = 0;
    // Small watermarks so the connection manager is exercised even in an
    // 80-peer swarm.
    config.conn_manager = {.low_water = 8, .high_water = 16};
    config.identity_seed = 1;
    publisher_ = std::make_unique<IpfsNode>(swarm_.network(), config);
    config.identity_seed = 2;
    retriever_ = std::make_unique<IpfsNode>(swarm_.network(), config);

    std::vector<dht::PeerRef> seeds;
    for (int i = 0; i < 6; ++i) seeds.push_back(swarm_.ref(i));
    bool ok_a = false, ok_b = false;
    publisher_->bootstrap(seeds, [&](bool ok) { ok_a = ok; });
    retriever_->bootstrap(seeds, [&](bool ok) { ok_b = ok; });
    swarm_.simulator().run();
    EXPECT_TRUE(ok_a);
    EXPECT_TRUE(ok_b);
  }

  TestSwarm swarm_;
  std::unique_ptr<IpfsNode> publisher_;
  std::unique_ptr<IpfsNode> retriever_;
};

TEST_F(IpfsNodeTest, AddImportsAndPins) {
  const auto data = random_bytes(512 * 1024, 21);
  const auto result = publisher_->add(data);
  EXPECT_EQ(result.chunk_count, 2u);
  EXPECT_TRUE(publisher_->store().pinned(result.root));
  EXPECT_EQ(merkledag::cat(publisher_->store(), result.root), data);
}

TEST_F(IpfsNodeTest, PublishProducesTimingDecomposition) {
  const auto data = random_bytes(512 * 1024, 22);
  PublishTrace trace;
  publisher_->publish(data, [&](PublishTrace t) { trace = t; });
  swarm_.simulator().run();

  EXPECT_TRUE(trace.ok);
  EXPECT_GT(trace.walk, 0);
  EXPECT_GT(trace.provider_records_sent, 5);
  EXPECT_EQ(trace.total, trace.walk + trace.rpc_batch);
  // The connection manager trims between walk and batch, so the batch
  // re-dials and takes non-zero time.
  EXPECT_GT(trace.rpc_batch, 0);
}

TEST_F(IpfsNodeTest, RetrieveFindsPublishedContentViaDht) {
  const auto data = random_bytes(512 * 1024, 23);
  PublishTrace publish_trace;
  publisher_->publish(data, [&](PublishTrace t) { publish_trace = t; });
  swarm_.simulator().run();
  ASSERT_TRUE(publish_trace.ok);

  // Make sure the retrieval cannot be resolved through Bitswap.
  retriever_->reset_for_next_measurement();

  RetrievalTrace trace;
  retriever_->retrieve(publish_trace.cid,
                       [&](RetrievalTrace t) { trace = t; });
  swarm_.simulator().run();

  EXPECT_TRUE(trace.ok);
  EXPECT_FALSE(trace.bitswap_hit);
  // Transferred bytes = content plus the interior DAG node overhead.
  EXPECT_GE(trace.bytes, data.size());
  EXPECT_LT(trace.bytes, data.size() + 1024);
  // The 1 s Bitswap window is always paid on the DHT path (footnote 4).
  EXPECT_GE(trace.bitswap_discovery, sim::seconds(1));
  EXPECT_GT(trace.provider_walk, 0);
  EXPECT_GT(trace.fetch, 0);
  EXPECT_GE(trace.total, trace.bitswap_discovery + trace.provider_walk +
                             trace.peer_walk + trace.fetch);
  EXPECT_EQ(merkledag::cat(retriever_->store(), trace.cid), data);
}

TEST_F(IpfsNodeTest, RetrievalStretchIsAboveOne) {
  const auto data = random_bytes(512 * 1024, 24);
  PublishTrace publish_trace;
  publisher_->publish(data, [&](PublishTrace t) { publish_trace = t; });
  swarm_.simulator().run();
  retriever_->reset_for_next_measurement();

  RetrievalTrace trace;
  retriever_->retrieve(publish_trace.cid,
                       [&](RetrievalTrace t) { trace = t; });
  swarm_.simulator().run();
  ASSERT_TRUE(trace.ok);
  EXPECT_GT(trace.stretch(), 1.0);
  // Removing the Bitswap window can only shrink the stretch (Figure 10b).
  EXPECT_LE(trace.stretch_without_bitswap(), trace.stretch());
}

TEST_F(IpfsNodeTest, SecondRetrievalHitsLocalStore) {
  const auto data = random_bytes(256 * 1024, 25);
  PublishTrace publish_trace;
  publisher_->publish(data, [&](PublishTrace t) { publish_trace = t; });
  swarm_.simulator().run();

  RetrievalTrace first;
  retriever_->retrieve(publish_trace.cid, [&](RetrievalTrace t) { first = t; });
  swarm_.simulator().run();
  ASSERT_TRUE(first.ok);

  RetrievalTrace second;
  retriever_->retrieve(publish_trace.cid,
                       [&](RetrievalTrace t) { second = t; });
  swarm_.simulator().run();
  EXPECT_TRUE(second.ok);
  EXPECT_TRUE(second.local_hit);
  EXPECT_EQ(second.total, 0);
}

TEST_F(IpfsNodeTest, BitswapResolvesWhenConnectedToProvider) {
  const auto data = random_bytes(256 * 1024, 26);
  PublishTrace publish_trace;
  publisher_->publish(data, [&](PublishTrace t) { publish_trace = t; });
  swarm_.simulator().run();

  // Connect retriever directly to the publisher: opportunistic Bitswap
  // should find the content without a DHT walk (step 4 of Figure 3).
  swarm_.network().connect(retriever_->node(), publisher_->node(),
                           [](bool, sim::Duration) {});
  swarm_.simulator().run();

  RetrievalTrace trace;
  retriever_->retrieve(publish_trace.cid,
                       [&](RetrievalTrace t) { trace = t; });
  swarm_.simulator().run();
  EXPECT_TRUE(trace.ok);
  EXPECT_TRUE(trace.bitswap_hit);
  EXPECT_EQ(trace.provider_walk, 0);
  EXPECT_LT(trace.bitswap_discovery, sim::seconds(1));
}

TEST_F(IpfsNodeTest, RetrieveOfUnknownCidFails) {
  const auto cid = multiformats::Cid::from_data(
      multiformats::Multicodec::kRaw, random_bytes(10, 27));
  RetrievalTrace trace;
  trace.ok = true;
  retriever_->retrieve(cid, [&](RetrievalTrace t) { trace = t; });
  swarm_.simulator().run();
  EXPECT_FALSE(trace.ok);
  EXPECT_GT(trace.provider_walk, 0);  // it did try the DHT
}

TEST_F(IpfsNodeTest, ResetClearsConnectionsButKeepsBootstrap) {
  const auto data = random_bytes(128 * 1024, 28);
  PublishTrace publish_trace;
  publisher_->publish(data, [&](PublishTrace t) { publish_trace = t; });
  swarm_.simulator().run();
  RetrievalTrace trace;
  retriever_->retrieve(publish_trace.cid, [&](RetrievalTrace t) { trace = t; });
  swarm_.simulator().run();
  ASSERT_TRUE(trace.ok);

  retriever_->reset_for_next_measurement();
  const auto connections =
      swarm_.network().connections_of(retriever_->node());
  // Only protected (bootstrap) connections remain.
  EXPECT_LE(connections.size(), 6u);
  EXPECT_EQ(retriever_->address_book().size(), 0u);
}


// --------------------------------------------------------------------------
// PinningService (paper Section 3.1: publishing on behalf of NAT'ed users)
// --------------------------------------------------------------------------

TEST_F(IpfsNodeTest, PinningServicePublishesForNatUsers) {
  // A NAT'ed end-user node: DHT client, cannot host content.
  IpfsNodeConfig nat_config;
  nat_config.net.region = 0;
  nat_config.net.dialable = false;
  nat_config.identity_seed = 77;
  IpfsNode nat_user(swarm_.network(), nat_config);
  std::vector<dht::PeerRef> seeds;
  for (int i = 0; i < 6; ++i) seeds.push_back(swarm_.ref(i));
  nat_user.bootstrap(seeds, [](bool) {});
  swarm_.simulator().run();
  ASSERT_EQ(nat_user.dht().mode(), dht::DhtNode::Mode::kClient);

  // The user uploads content to a pinning service running on a public
  // node (publisher_ here) instead of announcing it themselves.
  PinningService service(*publisher_);
  const auto data = random_bytes(256 * 1024, 60);
  PinningService::PinResult pin;
  service.pin_bytes(data, [&](PinningService::PinResult r) { pin = r; });
  swarm_.simulator().run();
  ASSERT_TRUE(pin.ok);
  EXPECT_GT(pin.provider_records, 5);
  EXPECT_EQ(service.pinned_count(), 1u);

  // Anyone (including the NAT'ed user) can now retrieve by CID.
  RetrievalTrace trace;
  nat_user.retrieve(pin.cid, [&](RetrievalTrace t) { trace = t; });
  swarm_.simulator().run();
  EXPECT_TRUE(trace.ok);
  EXPECT_EQ(merkledag::cat(nat_user.store(), pin.cid),
            std::optional(data));
}

TEST_F(IpfsNodeTest, PinningServicePinsExistingCid) {
  // Content published by one node gets re-pinned by a service running on
  // another, adding a second independent provider.
  const auto data = random_bytes(128 * 1024, 61);
  PublishTrace publish_trace;
  publisher_->publish(data, [&](PublishTrace t) { publish_trace = t; });
  swarm_.simulator().run();
  ASSERT_TRUE(publish_trace.ok);

  PinningService service(*retriever_);
  PinningService::PinResult pin;
  service.pin_cid(publish_trace.cid,
                  [&](PinningService::PinResult r) { pin = r; });
  swarm_.simulator().run();
  ASSERT_TRUE(pin.ok);
  EXPECT_TRUE(retriever_->store().pinned(publish_trace.cid));

  // The DHT now lists both providers.
  dht::LookupResult lookup;
  publisher_->dht().find_providers(dht::Key::for_cid(publish_trace.cid),
                                   [&](dht::LookupResult r) { lookup = r; });
  swarm_.simulator().run();
  EXPECT_GE(lookup.providers.size(), 1u);

  service.unpin(publish_trace.cid);
  EXPECT_FALSE(retriever_->store().pinned(publish_trace.cid));
  EXPECT_EQ(service.pinned_count(), 0u);
}

// --------------------------------------------------------------------------
// Periodic flush daemon (StoreConfig::flush_interval_us)
// --------------------------------------------------------------------------

TEST(IpfsNodeStoreTest, FlushTimerSyncsAcrossRestarts) {
  // flush_interval_us arms a daemon tick that flushes the persistent
  // store on a cadence, so puts become durable even when no add() acks
  // them. The daemon must die with a crashed process and come back with
  // the restart.
  testutil::TestSwarm swarm(20, /*seed=*/13);
  IpfsNodeConfig config;
  config.net.region = 0;
  config.identity_seed = 5;
  config.store.backend = blockstore::StoreConfig::Backend::kPersistent;
  config.store.flush_interval_us = 200'000;
  IpfsNode node(swarm.network(), config);
  blockstore::BlockStore& store = node.store();
  const metrics::Counter& fsyncs =
      swarm.network().metrics().counter("blockstore.fsync.count");

  sim::Rng rng(3);
  const auto put_one = [&] {
    const auto block = blockstore::Block::from_data(
        multiformats::Multicodec::kRaw, random_bytes(256, rng.next()));
    store.put(block);
    return block;
  };
  std::vector<blockstore::Block> blocks;
  for (int i = 0; i < 3; ++i) blocks.push_back(put_one());
  ASSERT_EQ(fsyncs.value(), 0u);

  // One interval later the daemon tick has synced the segment, so the
  // blocks survive a power cut.
  swarm.network().run_until(swarm.network().now() +
                            sim::microseconds(250'000));
  EXPECT_EQ(fsyncs.value(), 1u);
  node.handle_crash();
  for (const auto& block : blocks) {
    const auto data = store.get(block.cid);
    ASSERT_TRUE(data != nullptr);
    EXPECT_EQ(*data, *block.data);
  }

  // A crashed process takes its flush daemon with it: nothing syncs.
  put_one();
  swarm.network().run_until(swarm.network().now() +
                            sim::microseconds(600'000));
  EXPECT_EQ(fsyncs.value(), 1u);

  // Restart re-arms the cadence.
  std::vector<dht::PeerRef> seeds;
  for (int i = 0; i < 4; ++i) seeds.push_back(swarm.ref(i));
  node.handle_restart(seeds, [](bool) {});
  swarm.network().run_until(swarm.network().now() +
                            sim::microseconds(250'000));
  EXPECT_EQ(fsyncs.value(), 2u);
}

}  // namespace
}  // namespace ipfs::node
