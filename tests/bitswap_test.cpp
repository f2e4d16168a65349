// Bitswap tests: WANT_HAVE/WANT_BLOCK exchange, block verification,
// ledgers, DAG fetch, and the 1 s opportunistic-discovery window.
#include <gtest/gtest.h>

#include "bitswap/bitswap.h"
#include "merkledag/merkledag.h"
#include "scenario/scenario.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace ipfs::bitswap {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

class BitswapTest : public ::testing::Test {
 protected:
  BitswapTest()
      : scenario_(scenario::ScenarioBuilder()
                      .peers(2)
                      .seed(5)
                      .single_region(10.0)
                      .build()),
        sim_(scenario_.simulator()),
        network_(scenario_.network()) {
    node_a_ = scenario_.node(0);
    node_b_ = scenario_.node(1);
    bitswap_a_ = std::make_unique<Bitswap>(scenario_.transport(0), store_a_);
    bitswap_b_ = std::make_unique<Bitswap>(scenario_.transport(1), store_b_);
    attach(node_a_, *bitswap_a_);
    attach(node_b_, *bitswap_b_);
    network_.connect(node_a_, node_b_, [](bool, sim::Duration) {});
    sim_.run();
  }

  void attach(sim::NodeId node, Bitswap& bitswap) {
    network_.set_request_handler(
        node, [&bitswap](sim::NodeId from, const sim::MessagePtr& message,
                         auto respond) {
          bitswap.handle_request(from, message, respond);
        });
  }

  scenario::Scenario scenario_;
  sim::Simulator& sim_;
  sim::Network& network_;
  blockstore::BlockStore store_a_;
  blockstore::BlockStore store_b_;
  sim::NodeId node_a_ = 0;
  sim::NodeId node_b_ = 0;
  std::unique_ptr<Bitswap> bitswap_a_;
  std::unique_ptr<Bitswap> bitswap_b_;
};

TEST_F(BitswapTest, FetchBlockTransfersAndVerifies) {
  const auto block = blockstore::Block::from_data(
      multiformats::Multicodec::kRaw, random_bytes(1000, 1));
  store_b_.put(block);

  blockstore::BlockData fetched;
  bitswap_a_->fetch_block(node_b_, block.cid,
                          [&](BlockResult b) { fetched = std::move(b.data); });
  sim_.run();
  ASSERT_TRUE(fetched != nullptr);
  EXPECT_EQ(*fetched, *block.data);
  EXPECT_TRUE(store_a_.has(block.cid));  // stored locally after fetch
}

TEST_F(BitswapTest, FetchBlockRejectsBytesThatDoNotHashToTheCid) {
  const auto payload = random_bytes(1000, 7);
  const auto cid =
      multiformats::Cid::from_data(multiformats::Multicodec::kRaw, payload);
  auto tampered = payload;
  tampered[500] ^= 0x01;
  // Node b answers WANT_BLOCK with the right CID but one flipped byte.
  network_.set_request_handler(
      node_b_, [&](sim::NodeId, const sim::MessagePtr& message, auto respond) {
        ASSERT_EQ(message->kind(), sim::MessageKind::kWantBlockRequest);
        auto response = std::make_shared<BlockResponse>();
        response->cid = cid;
        response->data =
            std::make_shared<const std::vector<std::uint8_t>>(tampered);
        respond(std::move(response), tampered.size());
      });

  bool called = false;
  BlockResult result;
  result.dont_have = true;
  bitswap_a_->fetch_block(node_b_, cid, [&](BlockResult b) {
    called = true;
    result = std::move(b);
  });
  sim_.run();
  ASSERT_TRUE(called);
  EXPECT_TRUE(result.data == nullptr);
  EXPECT_FALSE(result.dont_have);
  EXPECT_FALSE(store_a_.has(cid));
  EXPECT_EQ(bitswap_a_->ledger_for(node_b_).blocks_received, 0u);
  EXPECT_EQ(
      network_.metrics().counter("bitswap.block_fetch_failures").value(), 1u);
}

TEST_F(BitswapTest, FetchMissingBlockReturnsNothing) {
  const auto cid = multiformats::Cid::from_data(
      multiformats::Multicodec::kRaw, random_bytes(10, 2));
  bool called = false;
  blockstore::BlockData fetched;
  bitswap_a_->fetch_block(node_b_, cid, [&](BlockResult b) {
    called = true;
    fetched = std::move(b.data);
  });
  sim_.run();
  EXPECT_TRUE(called);
  EXPECT_TRUE(fetched == nullptr);
}

TEST_F(BitswapTest, LedgersTrackExchangedBytes) {
  const auto block = blockstore::Block::from_data(
      multiformats::Multicodec::kRaw, random_bytes(2048, 3));
  store_b_.put(block);
  bitswap_a_->fetch_block(node_b_, block.cid, [](BlockResult) {});
  sim_.run();
  EXPECT_EQ(bitswap_a_->ledger_for(node_b_).bytes_received, 2048u);
  EXPECT_EQ(bitswap_a_->ledger_for(node_b_).blocks_received, 1u);
  EXPECT_EQ(bitswap_b_->ledger_for(node_a_).bytes_sent, 2048u);
}

TEST_F(BitswapTest, FetchDagReassemblesMultiChunkObject) {
  const auto data = random_bytes(700 * 1024, 4);  // 3 chunks
  const auto import = merkledag::import_bytes(store_b_, data);

  FetchStats stats;
  bitswap_a_->fetch_dag(node_b_, import.root,
                        [&](FetchStats s) { stats = s; });
  sim_.run();
  EXPECT_TRUE(stats.ok);
  EXPECT_EQ(stats.blocks, 4u);
  EXPECT_EQ(merkledag::cat(store_a_, import.root), data);
}

TEST_F(BitswapTest, FetchDagFailsOnIncompleteRemote) {
  const auto data = random_bytes(700 * 1024, 5);
  const auto import = merkledag::import_bytes(store_b_, data);
  const auto cids = merkledag::enumerate(store_b_, import.root);
  store_b_.remove(cids->back());  // drop a leaf

  FetchStats stats;
  stats.ok = true;
  bitswap_a_->fetch_dag(node_b_, import.root,
                        [&](FetchStats s) { stats = s; });
  sim_.run();
  EXPECT_FALSE(stats.ok);
}

TEST_F(BitswapTest, FetchDagSkipsBlocksItHolds) {
  // The requester already holds the root and the first four of eight
  // leaves, so only the other four are wanted.
  const auto data = random_bytes(8 * merkledag::kDefaultChunkSize, 11);
  const auto import = merkledag::import_bytes(store_b_, data);
  const auto root = merkledag::DagNode::decode(*store_b_.get(import.root));
  ASSERT_TRUE(root.has_value());
  ASSERT_EQ(root->links.size(), 8u);
  store_a_.put(*blockstore::Block::verify(import.root,
                                          store_b_.get(import.root)));
  for (std::size_t i = 0; i < 4; ++i) {
    const auto& cid = root->links[i].cid;
    store_a_.put(*blockstore::Block::verify(cid, store_b_.get(cid)));
  }

  const std::uint64_t wants_before =
      network_.metrics().counter_value("bitswap.want_block.tx");
  FetchStats stats;
  bitswap_a_->fetch_dag(node_b_, import.root,
                        [&](FetchStats s) { stats = s; });
  sim_.run();

  EXPECT_TRUE(stats.ok);
  EXPECT_EQ(stats.blocks, 4u);
  EXPECT_EQ(network_.metrics().counter_value("bitswap.want_block.tx") -
                wants_before,
            4u);
  EXPECT_EQ(merkledag::cat(store_a_, import.root), data);
}

TEST_F(BitswapTest, DiscoveryFindsConnectedHolder) {
  const auto block = blockstore::Block::from_data(
      multiformats::Multicodec::kRaw, random_bytes(100, 6));
  store_b_.put(block);

  std::optional<sim::NodeId> holder;
  const sim::Time start = sim_.now();
  sim::Time end = 0;
  bitswap_a_->discover(block.cid, [&](std::optional<sim::NodeId> h) {
    holder = h;
    end = sim_.now();
  });
  sim_.run();
  ASSERT_TRUE(holder.has_value());
  EXPECT_EQ(*holder, node_b_);
  EXPECT_LT(end - start, sim::seconds(1));  // HAVE arrives well before 1 s
  EXPECT_EQ(network_.metrics().counter_value("bitswap.discovery_hits"), 1u);
}

TEST_F(BitswapTest, DiscoveryMissWaitsFullTimeout) {
  const auto cid = multiformats::Cid::from_data(
      multiformats::Multicodec::kRaw, random_bytes(10, 7));
  const sim::Time start = sim_.now();
  sim::Time end = 0;
  bitswap_a_->discover(cid, [&](std::optional<sim::NodeId> h) {
    EXPECT_FALSE(h.has_value());
    end = sim_.now();
  });
  sim_.run();
  // go-ipfs pays the full 1 s window (paper footnote 4).
  EXPECT_EQ(end - start, kDiscoveryTimeout);
}

TEST_F(BitswapTest, DiscoveryMissWithEarlyExitReturnsSooner) {
  const auto cid = multiformats::Cid::from_data(
      multiformats::Multicodec::kRaw, random_bytes(10, 8));
  const sim::Time start = sim_.now();
  sim::Time end = 0;
  bitswap_a_->discover(
      cid, [&](std::optional<sim::NodeId>) { end = sim_.now(); },
      /*early_exit=*/true);
  sim_.run();
  EXPECT_LT(end - start, kDiscoveryTimeout);
}

TEST_F(BitswapTest, DiscoveryWithNoConnectionsFailsImmediately) {
  network_.disconnect(node_a_, node_b_);
  const auto cid = multiformats::Cid::from_data(
      multiformats::Multicodec::kRaw, random_bytes(10, 9));
  bool called = false;
  bitswap_a_->discover(cid, [&](std::optional<sim::NodeId> h) {
    called = true;
    EXPECT_FALSE(h.has_value());
  });
  EXPECT_TRUE(called);  // synchronous failure
}

TEST_F(BitswapTest, FetchDagRequestsSharedLinkOnlyOnce) {
  // A DAG whose root links the same leaf twice (shared-link dedup).
  // Regression: both copies used to be dispatched before either landed,
  // double-fetching the block and double-counting blocks/bytes.
  const auto leaf = blockstore::Block::from_data(
      multiformats::Multicodec::kRaw, random_bytes(1024, 21));
  merkledag::DagNode root_node;
  root_node.links.push_back({leaf.cid, leaf.data->size()});
  root_node.links.push_back({leaf.cid, leaf.data->size()});
  const auto root = blockstore::Block::from_data(
      multiformats::Multicodec::kDagPb, root_node.encode());
  store_b_.put(leaf);
  store_b_.put(root);

  FetchStats stats;
  bitswap_a_->fetch_dag(node_b_, root.cid, [&](FetchStats s) { stats = s; });
  sim_.run();

  EXPECT_TRUE(stats.ok);
  EXPECT_EQ(stats.blocks, 2u);  // root + leaf, the leaf exactly once
  EXPECT_EQ(stats.bytes, root.data->size() + leaf.data->size());
  EXPECT_EQ(bitswap_b_->ledger_for(node_a_).blocks_sent, 2u);
  EXPECT_EQ(network_.metrics().counter_value(
                "bitswap.duplicate_wants_suppressed"),
            1u);
}

}  // namespace
}  // namespace ipfs::bitswap
