#include "gateway/fleet.h"

#include <string>

#include "merkledag/merkledag.h"

namespace ipfs::gateway {

GatewayFleet::GatewayFleet(sim::Network& network, const FleetConfig& config)
    : network_(network),
      config_(config),
      origin_(std::make_shared<blockstore::LruBlockStore>(
          config.origin_cache_bytes)),
      ring_(HashRingConfig{}),
      inflight_(config.replicas, 0) {
  replicas_.reserve(config_.replicas);
  for (std::size_t i = 0; i < config_.replicas; ++i) {
    GatewayConfig replica = config_.replica;
    replica.metrics_label = "r" + std::to_string(i);
    replica.origin = origin_;
    // Replicas share the template but must not share a node identity.
    replica.node.identity_seed ^= 0x9e3779b97f4a7c15ULL * (i + 1);
    replica.edge_cache.tinylfu = true;
    replicas_.push_back(std::make_unique<Gateway>(network_, replica));
    ring_.add_replica(i);
  }
}

void GatewayFleet::bootstrap(std::vector<dht::PeerRef> seeds,
                             std::function<void(bool)> done) {
  // Shared completion state: done(all_ok) fires after the last replica.
  auto pending = std::make_shared<std::size_t>(replicas_.size());
  auto all_ok = std::make_shared<bool>(true);
  auto shared_done = std::make_shared<std::function<void(bool)>>(std::move(done));
  if (*pending == 0) {
    (*shared_done)(true);
    return;
  }
  for (auto& replica : replicas_) {
    replica->bootstrap(seeds, [pending, all_ok, shared_done](bool ok) {
      if (!ok) *all_ok = false;
      if (--*pending == 0) (*shared_done)(*all_ok);
    });
  }
}

Cid GatewayFleet::pin_object(std::span<const std::uint8_t> data) {
  // Import into a scratch store first: the root CID decides which
  // replica's node pins the object, so the partition follows the ring.
  blockstore::BlockStore scratch;
  const Cid root = merkledag::import_bytes(scratch, data).root;
  std::size_t target = 0;
  if (const auto owner = ring_.owner(blockstore::cid_hash64(root)))
    target = *owner;
  replicas_[target]->pin_object(data);
  return root;
}

std::optional<std::size_t> GatewayFleet::route(const Cid& cid) const {
  return ring_.pick(
      blockstore::cid_hash64(cid),
      [this](std::size_t replica) { return inflight_[replica]; },
      total_inflight_);
}

void GatewayFleet::handle_get(const Cid& cid,
                              std::function<void(GatewayResponse)> done) {
  metrics::Registry& metrics = network_.metrics();
  metrics.counter("gateway.fleet.requests").inc();
  const auto picked = route(cid);
  if (!picked) {
    // No routable replica (all drained): typed failure, nothing served.
    GatewayResponse response;
    response.source = ServedFrom::kFailed;
    network_.schedule_after(
        0, [response, done = std::move(done)] { done(response); });
    return;
  }
  const std::size_t replica = *picked;
  if (const auto owner = ring_.owner(blockstore::cid_hash64(cid));
      owner && *owner != replica) {
    ++routed_spills_;
    metrics.counter("gateway.fleet.spills").inc();
  }
  ++inflight_[replica];
  ++total_inflight_;
  replicas_[replica]->handle_get(
      cid, [this, replica, done = std::move(done)](GatewayResponse response) {
        --inflight_[replica];
        --total_inflight_;
        done(response);
      });
}

void GatewayFleet::remove_replica(std::size_t index) {
  ring_.remove_replica(index);
}

void GatewayFleet::add_replica(std::size_t index) {
  if (index < replicas_.size()) ring_.add_replica(index);
}

TierStats GatewayFleet::aggregate(ServedFrom source) const {
  TierStats sum;
  for (const auto& replica : replicas_) {
    const TierStats& stats = replica->stats(source);
    sum.requests += stats.requests;
    sum.bytes += stats.bytes;
  }
  return sum;
}

std::uint64_t GatewayFleet::total_requests() const {
  std::uint64_t total = 0;
  for (const auto& replica : replicas_) total += replica->total_requests();
  return total;
}

double GatewayFleet::fleet_absorbed_share() const {
  const std::uint64_t absorbed = aggregate(ServedFrom::kNginxCache).requests +
                                 aggregate(ServedFrom::kNodeStore).requests +
                                 aggregate(ServedFrom::kOriginCache).requests;
  const std::uint64_t completed = absorbed + aggregate(ServedFrom::kP2p).requests;
  if (completed == 0) return 0.0;
  return static_cast<double>(absorbed) / static_cast<double>(completed);
}

}  // namespace ipfs::gateway
