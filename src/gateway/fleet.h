// Gateway fleet (docs/GATEWAY.md): the ipfs.io deployment model scaled
// out. N Gateway replicas sit behind a consistent-hash front end; each
// keeps its own nginx-style edge cache (TinyLFU-admitted segmented LRU)
// and all share one origin cache, so a miss on one replica's edge is
// answered from fleet storage before the P2P network is asked. The
// fleet_absorbed_share() metric — requests served inside the fleet vs
// forwarded upstream — is the centralization measure of Balduf et al.
#pragma once

#include <memory>
#include <vector>

#include "gateway/gateway.h"
#include "gateway/hash_ring.h"

namespace ipfs::gateway {

struct FleetConfig {
  std::size_t replicas = 4;
  // Template for every replica; the fleet fills in per-replica pieces
  // (metrics_label "r<i>", the shared origin handle, TinyLFU admission).
  GatewayConfig replica;
  // Shared origin tier (a plain segmented LRU), sized like a mid-tier
  // object store.
  std::uint64_t origin_cache_bytes = 256ull * 1024 * 1024;
};

class GatewayFleet {
 public:
  GatewayFleet(sim::Network& network, const FleetConfig& config);

  // Bootstraps every replica's node; done(true) once all joined.
  void bootstrap(std::vector<dht::PeerRef> seeds,
                 std::function<void(bool)> done);

  // Pins an object on its ring owner (the Web3/NFT Storage path) and
  // returns the root CID it is addressed by.
  Cid pin_object(std::span<const std::uint8_t> data);

  // Front-end GET: bounded-load consistent-hash routes to a replica.
  void handle_get(const Cid& cid, std::function<void(GatewayResponse)> done);

  // The replica handle_get would route to right now (no load mutation);
  // exposed for rebalance measurements and tests.
  std::optional<std::size_t> route(const Cid& cid) const;

  // Drains a replica out of / back into the router. The Gateway object
  // stays alive (its caches keep their contents), it just stops/starts
  // receiving routed traffic — the rolling-restart model.
  void remove_replica(std::size_t index);
  void add_replica(std::size_t index);

  std::size_t replica_count() const { return replicas_.size(); }
  Gateway& replica(std::size_t index) { return *replicas_[index]; }
  const Gateway& replica(std::size_t index) const { return *replicas_[index]; }
  blockstore::LruBlockStore& origin() { return *origin_; }
  const HashRing& ring() const { return ring_; }
  // Requests the bounded-load walk sent somewhere other than the ring
  // owner (the spill count).
  std::uint64_t routed_spills() const { return routed_spills_; }

  // Fleet-wide tier aggregates (sum over replicas).
  TierStats aggregate(ServedFrom source) const;
  std::uint64_t total_requests() const;
  // Share of completed requests absorbed by fleet storage (edge cache +
  // node store + origin cache) rather than the P2P network.
  double fleet_absorbed_share() const;

 private:
  sim::Network& network_;
  FleetConfig config_;
  std::shared_ptr<blockstore::LruBlockStore> origin_;
  std::vector<std::unique_ptr<Gateway>> replicas_;
  HashRing ring_;
  std::vector<std::uint64_t> inflight_;  // routed requests in flight
  std::uint64_t total_inflight_ = 0;
  std::uint64_t routed_spills_ = 0;
};

}  // namespace ipfs::gateway
