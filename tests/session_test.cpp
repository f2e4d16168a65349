// Bitswap session tests: multi-path striping, failure retry, peer
// scoring, and degradation to single-path.
#include <gtest/gtest.h>

#include "bitswap/session.h"
#include "merkledag/merkledag.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "transport/sim_transport.h"

namespace ipfs::bitswap {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

class SessionTest : public ::testing::Test {
 protected:
  static constexpr int kProviders = 3;

  SessionTest()
      : latency_({{15.0}}, 1.0, 1.0),
        network_(sim_, latency_, 7),
        requester_endpoint_(
            network_,
            {.region = 0, .download_bytes_per_sec = 50.0 * 1024 * 1024}) {
    requester_node_ = requester_endpoint_.local();
    requester_ = std::make_unique<Bitswap>(requester_endpoint_,
                                           requester_store_);
    for (int i = 0; i < kProviders; ++i) {
      provider_endpoints_[i] = std::make_unique<transport::SimTransport>(
          network_,
          sim::NodeConfig{.region = 0,
                          .upload_bytes_per_sec = 2.0 * 1024 * 1024});
      provider_nodes_[i] = provider_endpoints_[i]->local();
      providers_[i] = std::make_unique<Bitswap>(*provider_endpoints_[i],
                                                provider_stores_[i]);
      Bitswap* bitswap = providers_[i].get();
      network_.set_request_handler(
          provider_nodes_[i],
          [bitswap](sim::NodeId from, const sim::MessagePtr& message,
                    auto respond) {
            bitswap->handle_request(from, message, respond);
          });
      network_.connect(requester_node_, provider_nodes_[i],
                       [](bool, sim::Duration) {});
    }
    sim_.run();
  }

  // Imports the object into `count` provider stores; returns the root.
  multiformats::Cid seed_providers(const std::vector<std::uint8_t>& data,
                                   int count) {
    multiformats::Cid root;
    for (int i = 0; i < count; ++i)
      root = merkledag::import_bytes(provider_stores_[i], data).root;
    return root;
  }

  sim::Simulator sim_;
  sim::LatencyModel latency_;
  sim::Network network_;
  transport::SimTransport requester_endpoint_;
  std::unique_ptr<transport::SimTransport> provider_endpoints_[kProviders];
  blockstore::BlockStore requester_store_;
  blockstore::BlockStore provider_stores_[kProviders];
  sim::NodeId requester_node_ = 0;
  sim::NodeId provider_nodes_[kProviders] = {};
  std::unique_ptr<Bitswap> requester_;
  std::unique_ptr<Bitswap> providers_[kProviders];
};

TEST_F(SessionTest, StripesBlocksAcrossPeers) {
  const auto data = random_bytes(2 * 1024 * 1024, 1);  // 8 chunks
  const auto root = seed_providers(data, 3);

  Session session(*requester_);
  for (int i = 0; i < 3; ++i) session.add_peer(provider_nodes_[i]);
  EXPECT_EQ(session.peer_count(), 3u);

  SessionFetchStats stats;
  session.fetch_dag(root, [&](SessionFetchStats s) { stats = s; });
  sim_.run();

  ASSERT_TRUE(stats.ok);
  EXPECT_EQ(merkledag::cat(requester_store_, root), data);
  // At least two peers contributed blocks.
  int contributors = 0;
  for (const auto& [node, peer_stats] : stats.per_peer)
    if (peer_stats.blocks > 0) ++contributors;
  EXPECT_GE(contributors, 2);
}

TEST_F(SessionTest, MultiPathBeatsSinglePath) {
  const auto data = random_bytes(4 * 1024 * 1024, 2);  // 16 chunks
  const auto root = seed_providers(data, 3);

  // Single-path fetch.
  FetchStats single;
  blockstore::BlockStore single_store;
  Bitswap single_bitswap(requester_endpoint_, single_store);
  single_bitswap.fetch_dag(provider_nodes_[0], root,
                           [&](FetchStats s) { single = s; });
  sim_.run();
  ASSERT_TRUE(single.ok);

  // Session fetch over three providers (fresh store so nothing is local).
  blockstore::BlockStore session_store;
  Bitswap session_bitswap(requester_endpoint_, session_store);
  Session session(session_bitswap);
  for (int i = 0; i < 3; ++i) session.add_peer(provider_nodes_[i]);
  SessionFetchStats multi;
  session.fetch_dag(root, [&](SessionFetchStats s) { multi = s; });
  sim_.run();
  ASSERT_TRUE(multi.ok);

  // Providers cap at 2 MiB/s upload each; three in parallel should be
  // clearly faster than one.
  EXPECT_LT(multi.elapsed, single.elapsed);
}

TEST_F(SessionTest, ReroutesWantsOffStaleProviderViaDontHave) {
  const auto data = random_bytes(1536 * 1024, 3);  // 6 chunks
  // Providers 0 and 1 have the content; provider 2 has NOTHING but is in
  // the session (a stale provider record).
  const auto root = seed_providers(data, 2);

  // Probes off: WANT_BLOCKs reach the empty peer, which answers with an
  // explicit DONT_HAVE (1.2.0) instead of leaving the want to time out.
  SessionConfig config;
  config.probe_want_have = false;
  Session session(*requester_, config);
  for (int i = 0; i < 3; ++i) session.add_peer(provider_nodes_[i]);

  SessionFetchStats stats;
  session.fetch_dag(root, [&](SessionFetchStats s) { stats = s; });
  sim_.run();

  ASSERT_TRUE(stats.ok);
  EXPECT_EQ(merkledag::cat(requester_store_, root), data);
  // Wants landing on the empty peer were answered DONT_HAVE and rerouted
  // to the peers that have the content — an honest miss, not a transport
  // failure, so the peer is penalized in score but never marked dead.
  EXPECT_GT(stats.dont_have_reroutes, 0u);
  EXPECT_GT(stats.per_peer[provider_nodes_[2]].dont_haves, 0u);
  EXPECT_EQ(stats.per_peer[provider_nodes_[2]].failures, 0u);
  EXPECT_EQ(stats.per_peer[provider_nodes_[2]].blocks, 0u);
}

TEST_F(SessionTest, ProbePhaseAvoidsStaleProviderEntirely) {
  const auto data = random_bytes(1536 * 1024, 3);  // 6 chunks
  const auto root = seed_providers(data, 2);

  // Default config: WANT_HAVE probes run first. The empty peer answers
  // DONT_HAVE for the root and is demoted before any WANT_BLOCK reaches
  // it — no wants are wasted on a peer known not to have the content.
  Session session(*requester_);
  for (int i = 0; i < 3; ++i) session.add_peer(provider_nodes_[i]);

  SessionFetchStats stats;
  session.fetch_dag(root, [&](SessionFetchStats s) { stats = s; });
  sim_.run();

  ASSERT_TRUE(stats.ok);
  EXPECT_EQ(merkledag::cat(requester_store_, root), data);
  EXPECT_GT(stats.per_peer[provider_nodes_[2]].dont_haves, 0u);
  EXPECT_EQ(stats.per_peer[provider_nodes_[2]].wants_sent, 0u);
  EXPECT_EQ(stats.per_peer[provider_nodes_[2]].blocks, 0u);
}

TEST_F(SessionTest, FailsWhenNoPeerHasTheContent) {
  const auto data = random_bytes(100 * 1024, 4);
  blockstore::BlockStore elsewhere;
  const auto root = merkledag::import_bytes(elsewhere, data).root;

  Session session(*requester_);
  for (int i = 0; i < 3; ++i) session.add_peer(provider_nodes_[i]);
  SessionFetchStats stats;
  stats.ok = true;
  session.fetch_dag(root, [&](SessionFetchStats s) { stats = s; });
  sim_.run();
  EXPECT_FALSE(stats.ok);
}

TEST_F(SessionTest, EmptySessionFailsImmediately) {
  Session session(*requester_);
  bool called = false;
  session.fetch_dag(multiformats::Cid::from_data(
                        multiformats::Multicodec::kRaw, random_bytes(8, 5)),
                    [&](SessionFetchStats s) {
                      called = true;
                      EXPECT_FALSE(s.ok);
                    });
  EXPECT_TRUE(called);
}

TEST_F(SessionTest, SurvivesConnectionResetMidTransfer) {
  const auto data = random_bytes(2 * 1024 * 1024, 7);  // 8 chunks
  const auto root = seed_providers(data, 3);

  Session session(*requester_);
  for (int i = 0; i < 3; ++i) session.add_peer(provider_nodes_[i]);

  SessionFetchStats stats;
  session.fetch_dag(root, [&](SessionFetchStats s) { stats = s; });
  // Providers cap at 2 MiB/s: the transfer takes about a second, so a
  // reset at 200 ms catches in-flight WANT_BLOCKs on provider 0.
  sim_.schedule_after(sim::milliseconds(200), [&] {
    network_.reset_connection(requester_node_, provider_nodes_[0]);
  });
  sim_.run();

  ASSERT_TRUE(stats.ok);
  EXPECT_EQ(merkledag::cat(requester_store_, root), data);
  // The reset surfaced as failures on provider 0 and the lost blocks were
  // retried on the surviving peers.
  EXPECT_GT(stats.per_peer[provider_nodes_[0]].failures, 0u);
  EXPECT_GT(stats.retried_blocks, 0u);
}

TEST_F(SessionTest, SurvivesPeerCrashMidTransfer) {
  const auto data = random_bytes(2 * 1024 * 1024, 8);
  const auto root = seed_providers(data, 3);

  Session session(*requester_);
  for (int i = 0; i < 3; ++i) session.add_peer(provider_nodes_[i]);

  SessionFetchStats stats;
  session.fetch_dag(root, [&](SessionFetchStats s) { stats = s; });
  sim_.schedule_after(sim::milliseconds(200), [&] {
    network_.set_online(provider_nodes_[0], false);
  });
  sim_.run();

  ASSERT_TRUE(stats.ok);
  EXPECT_EQ(merkledag::cat(requester_store_, root), data);
}

TEST_F(SessionTest, AllProvidersCrashingFailsWithTypedError) {
  // More blocks than the fetch window, so the session must issue new
  // WANT_BLOCKs after the crash (blocks already on the wire at crash time
  // still arrive — the crash mutes the providers, not in-flight bytes).
  const auto data = random_bytes(8 * 1024 * 1024, 9);  // 32 chunks
  const auto root = seed_providers(data, 3);

  Session session(*requester_);
  for (int i = 0; i < 3; ++i) session.add_peer(provider_nodes_[i]);

  int completions = 0;
  SessionFetchStats stats;
  stats.ok = true;
  session.fetch_dag(root, [&](SessionFetchStats s) {
    stats = s;
    ++completions;
  });
  sim_.schedule_after(sim::milliseconds(100), [&] {
    for (int i = 0; i < 3; ++i) network_.set_online(provider_nodes_[i], false);
  });
  sim_.run();

  // The fetch reports failure exactly once — a typed error, not a hang.
  EXPECT_EQ(completions, 1);
  EXPECT_FALSE(stats.ok);
}

TEST_F(SessionTest, UnreachablePeerCompletesOnce) {
  // The only peer is disconnected, so every request fails synchronously
  // inside the dispatch loop. The fetch must still report exactly once.
  const auto data = random_bytes(600 * 1024, 11);
  const auto root = seed_providers(data, 1);
  network_.disconnect(requester_node_, provider_nodes_[0]);

  Session session(*requester_);
  session.add_peer(provider_nodes_[0]);
  int completions = 0;
  SessionFetchStats stats;
  stats.ok = true;
  session.fetch_dag(root, [&](SessionFetchStats s) {
    stats = s;
    ++completions;
  });
  sim_.run();

  EXPECT_EQ(completions, 1);
  EXPECT_FALSE(stats.ok);
}

TEST_F(SessionTest, FailsAtOnceWhenEveryPeerFailedABlock) {
  // Both providers lack the first leaf the session wants (the root's
  // last link; wants pop from the top of a stack). Once both answered
  // DONT_HAVE for it no peer can deliver the DAG, so the fetch fails
  // then, without waiting for the other wants to drain.
  const auto data = random_bytes(32 * merkledag::kDefaultChunkSize, 12);
  const auto root = seed_providers(data, 2);
  const auto root_node =
      merkledag::DagNode::decode(*provider_stores_[0].get(root));
  ASSERT_TRUE(root_node.has_value());
  ASSERT_EQ(root_node->links.size(), 32u);
  const auto missing = root_node->links.back().cid;
  ASSERT_TRUE(provider_stores_[0].remove(missing));
  ASSERT_TRUE(provider_stores_[1].remove(missing));

  SessionConfig config;
  config.probe_want_have = false;
  Session session(*requester_, config);
  session.add_peer(provider_nodes_[0]);
  session.add_peer(provider_nodes_[1]);
  int completions = 0;
  std::size_t outstanding_at_done = 0;
  SessionFetchStats stats;
  stats.ok = true;
  session.fetch_dag(root, [&](SessionFetchStats s) {
    stats = s;
    ++completions;
    outstanding_at_done = network_.pending_request_count();
  });
  sim_.run();

  EXPECT_EQ(completions, 1);
  EXPECT_FALSE(stats.ok);
  EXPECT_EQ(stats.per_peer[provider_nodes_[0]].dont_haves, 1u);
  EXPECT_EQ(stats.per_peer[provider_nodes_[1]].dont_haves, 1u);
  EXPECT_GT(outstanding_at_done, 0u);
}

TEST_F(SessionTest, RestartedPeerKeepsBlockstoreAndServesAgain) {
  const auto data = random_bytes(1024 * 1024, 10);
  const auto root = seed_providers(data, 1);

  // Crash the only provider, then bring it back: the blockstore survives
  // a crash (it lives on disk), so a post-restart session succeeds.
  network_.set_online(provider_nodes_[0], false);
  providers_[0]->handle_crash();
  network_.set_online(provider_nodes_[0], true);
  network_.connect(requester_node_, provider_nodes_[0],
                   [](bool, sim::Duration) {});
  sim_.run();

  Session session(*requester_);
  session.add_peer(provider_nodes_[0]);
  SessionFetchStats stats;
  session.fetch_dag(root, [&](SessionFetchStats s) { stats = s; });
  sim_.run();

  ASSERT_TRUE(stats.ok);
  EXPECT_EQ(merkledag::cat(requester_store_, root), data);
  // And the ledger kept its pre-crash accounting semantics: the restarted
  // peer recorded the blocks it just served.
  EXPECT_GT(providers_[0]->ledger_for(requester_node_).blocks_sent, 0u);
}

TEST_F(SessionTest, SinglePeerSessionStillWorks) {
  const auto data = random_bytes(600 * 1024, 6);
  const auto root = seed_providers(data, 1);
  Session session(*requester_);
  session.add_peer(provider_nodes_[0]);
  SessionFetchStats stats;
  session.fetch_dag(root, [&](SessionFetchStats s) { stats = s; });
  sim_.run();
  EXPECT_TRUE(stats.ok);
  EXPECT_EQ(merkledag::cat(requester_store_, root), data);
}

TEST_F(SessionTest, SharedDagLinksAreFetchedExactlyOnce) {
  // Root links leaf A twice plus leaf B. Striping across three peers used
  // to dispatch both copies of A concurrently (neither had landed yet),
  // double-fetching the block and double-counting the session stats.
  const auto leaf_a = blockstore::Block::from_data(
      multiformats::Multicodec::kRaw, random_bytes(2048, 31));
  const auto leaf_b = blockstore::Block::from_data(
      multiformats::Multicodec::kRaw, random_bytes(1024, 32));
  merkledag::DagNode root_node;
  root_node.links.push_back({leaf_a.cid, leaf_a.data->size()});
  root_node.links.push_back({leaf_a.cid, leaf_a.data->size()});
  root_node.links.push_back({leaf_b.cid, leaf_b.data->size()});
  const auto root = blockstore::Block::from_data(
      multiformats::Multicodec::kDagPb, root_node.encode());
  for (int i = 0; i < kProviders; ++i) {
    provider_stores_[i].put(leaf_a);
    provider_stores_[i].put(leaf_b);
    provider_stores_[i].put(root);
  }

  Session session(*requester_);
  for (int i = 0; i < kProviders; ++i) session.add_peer(provider_nodes_[i]);
  SessionFetchStats stats;
  session.fetch_dag(root.cid, [&](SessionFetchStats s) { stats = s; });
  sim_.run();

  ASSERT_TRUE(stats.ok);
  EXPECT_EQ(stats.blocks, 3u);  // root + A + B, each exactly once
  EXPECT_EQ(stats.bytes,
            root.data->size() + leaf_a.data->size() + leaf_b.data->size());
  std::uint64_t sent = 0;
  for (int i = 0; i < kProviders; ++i)
    sent += providers_[i]->ledger_for(requester_node_).blocks_sent;
  EXPECT_EQ(sent, 3u);
  EXPECT_EQ(network_.metrics().counter_value(
                "bitswap.duplicate_wants_suppressed"),
            1u);
}

}  // namespace
}  // namespace ipfs::bitswap
