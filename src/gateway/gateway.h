// IPFS HTTP gateway (paper Section 3.4): a bridge between plain HTTP
// clients and the P2P network. Requests traverse the serving tiers:
//
//   1. the nginx-style edge cache (segmented LRU over whole objects,
//      optional TinyLFU admission)                        — ~0 latency
//   2. the co-located IPFS node's store (pinned content)  — few ms
//   3. the fleet's shared origin cache (when configured)  — ~1 ms + transfer
//   4. the P2P network via the full retrieval pipeline    — seconds
//
// Tiers 1, 2 and 4 match the three rows of Table 5; tier 3 exists only
// when the gateway runs as a GatewayFleet replica (docs/GATEWAY.md).
// Every tier accounts an object by its size alone: the caches hold byte
// counts, and tier 2 and the P2P fill walk the DAG with
// merkledag::content_size, so no tier copies an object's bytes.
#pragma once

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "blockstore/blockstore.h"
#include "node/ipfs_node.h"

namespace ipfs::gateway {

using multiformats::Cid;

// Latency model of the local tiers.
constexpr sim::Duration kNginxHitLatency = sim::microseconds(300);
constexpr sim::Duration kNodeStoreBaseLatency = sim::milliseconds(5);
constexpr double kNodeStoreBytesPerSec = 500.0 * 1024 * 1024;
constexpr sim::Duration kOriginHitLatency = sim::milliseconds(1);
constexpr double kOriginBytesPerSec = 2.0 * 1024 * 1024 * 1024;
// Negative-result cache: a failed P2P retrieval is remembered for this
// long, so repeated flash crowds on a dead CID fail in edge-cache time
// instead of each re-paying the full retrieval pipeline.
constexpr sim::Duration kNegativeTtl = sim::seconds(30);

struct GatewayConfig {
  node::IpfsNodeConfig node;
  std::uint64_t nginx_cache_bytes = 64ull * 1024 * 1024;
  // Edge-cache replacement/admission policy (segmented LRU; TinyLFU off
  // by default — the fleet turns it on for its replicas).
  blockstore::LruConfig edge_cache;
  // Shared origin tier (null = standalone gateway). Consulted after the
  // node store and before the P2P pipeline; P2P fills write through to
  // it so sibling replicas stop re-paying upstream retrievals.
  std::shared_ptr<blockstore::LruBlockStore> origin;
  // Per-replica metrics label ("r0", "r1", ...). Empty: only the
  // aggregate gateway.* instruments are written. Non-empty: counters are
  // additionally written under gateway.<label>.* so a fleet's registry
  // separates its replicas (docs/OBSERVABILITY.md).
  std::string metrics_label;
};

enum class ServedFrom {
  kNginxCache,
  kNodeStore,
  kOriginCache,
  kP2p,
  kFailed
};

struct GatewayResponse {
  ServedFrom source = ServedFrom::kFailed;
  sim::Duration latency = 0;  // upstream latency as logged by nginx
  std::uint64_t bytes = 0;
  // For P2P-tier responses: which routing path found the provider
  // (kNone when Bitswap resolved it opportunistically or the retrieval
  // failed). Feeds the gateway.routing.* counters.
  routing::Source routing_source = routing::Source::kNone;
};

// Aggregate counters per tier (Table 5 inputs).
struct TierStats {
  std::uint64_t requests = 0;
  std::uint64_t bytes = 0;
};

class Gateway {
 public:
  // The gateway's co-located node joins `network` as a fresh fabric node
  // (config.node.net).
  Gateway(sim::Network& network, const GatewayConfig& config);

  // Joins the P2P network like any node.
  void bootstrap(std::vector<dht::PeerRef> seeds,
                 std::function<void(bool)> done);

  // Pins an object (all its blocks) into the gateway node's store — the
  // Web3/NFT Storage path that makes content persistently available.
  void pin_object(std::span<const std::uint8_t> data);

  // Handles GET /ipfs/{cid}. The callback receives the tier that served
  // the request and the upstream latency.
  void handle_get(const Cid& cid, std::function<void(GatewayResponse)> done);

  // Handles GET /ipfs/{cid}/{path}: resolves the UnixFS path below the
  // root (fetching the tree from the network when it is not local) and
  // serves the addressed file.
  void handle_get_path(const Cid& root, const std::string& path,
                       std::function<void(GatewayResponse)> done);

  // Parses a gateway URL path of the form "/ipfs/{cid}[/sub/path]".
  // Returns the root CID and the remainder path.
  static std::optional<std::pair<Cid, std::string>> parse_url_path(
      std::string_view url_path);

  node::IpfsNode& node() { return node_; }
  const GatewayConfig& config() const { return config_; }
  const TierStats& stats(ServedFrom source) const;
  std::uint64_t total_requests() const { return total_requests_; }
  blockstore::LruBlockStore& nginx_cache() { return nginx_cache_; }

  // Tier-3 requests that joined an already-running retrieval for the
  // same CID instead of launching their own (the flash-crowd shield).
  std::uint64_t coalesced_requests() const { return coalesced_requests_; }
  // Requests answered (as typed failures) straight from the
  // negative-result cache instead of re-running a doomed retrieval.
  std::uint64_t negative_hits() const { return negative_hits_; }

 private:
  // Computes a response for `cid` through the serving tiers. When
  // `account_tier` is set the response is accounted (tier stats, total,
  // metrics) as it stands; handle_get_path's network branch passes false
  // and accounts the rewritten response itself, so every request lands in
  // exactly one tier and sum(tier requests) == total_requests() always.
  void serve(const Cid& cid, bool account_tier,
             std::function<void(GatewayResponse)> done);

  // The single accounting point: tier stats + total + metrics registry.
  void account(const Cid& cid, const GatewayResponse& response);

  // A cached tier's answer: accounted now when `account_tier` is set,
  // delivered after the tier's latency.
  void reply(const Cid& cid, bool account_tier,
             const GatewayResponse& response,
             std::function<void(GatewayResponse)> done);

  // The bridge node keeps fetched blocks only transiently: drops the
  // DAG below an unpinned `root` so the node store tier stays the
  // pinned-content tier.
  void drop_transient(const Cid& root);

  // One queued tier-P2P request. Each waiter observes its own latency
  // (completion minus its arrival) and is accounted individually; only
  // the upstream retrieval is shared.
  struct Waiter {
    bool account_tier = true;
    sim::Time start = 0;
    std::function<void(GatewayResponse)> done;
  };

  GatewayConfig config_;
  node::IpfsNode node_;
  // The co-located node's transport; declared after node_ (load-bearing:
  // initialized from node_.transport()).
  transport::Transport& transport_;
  // Object sizes by root CID; charged against nginx_cache_bytes.
  blockstore::LruBlockStore nginx_cache_;
  // Indexed by ServedFrom.
  std::array<TierStats, static_cast<std::size_t>(ServedFrom::kFailed) + 1>
      tier_stats_;
  std::uint64_t total_requests_ = 0;
  std::uint64_t coalesced_requests_ = 0;
  std::uint64_t negative_hits_ = 0;
  // In-flight P2P retrievals by CID (singleflight): a flash crowd of
  // misses for one CID pays a single upstream retrieval. Keyed by the
  // Cid itself (totally ordered) — no per-request string allocation.
  std::map<Cid, std::vector<Waiter>> inflight_;
  // Dead-CID shield: CID -> expiry of the cached failure.
  std::map<Cid, sim::Time> negative_until_;
};

}  // namespace ipfs::gateway
