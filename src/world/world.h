// The assembled world: a simulated IPFS swarm with realistic geography,
// churn, NAT'ed peers and pre-converged Kademlia routing tables. This is
// the stand-in for the live public network the paper measures.
//
// The world adds every node (peer, hydra head, indexer) to the fabric
// through one transport::SimTransport that it owns, and hands that one
// endpoint to every engine on the node.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "dht/dht_node.h"
#include "indexer/indexer.h"
#include "routing/router.h"
#include "sim/churn.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "transport/sim_transport.h"
#include "world/population.h"

namespace ipfs::world {

struct WorldConfig {
  PopulationConfig population;
  std::uint64_t seed = 42;
  bool enable_churn = true;
  std::size_t bootstrap_count = 6;  // the canonical bootstrap peers
  // Memory cap on pre-seeded routing entries per peer.
  std::size_t max_routing_entries = 192;
  // Share of NAT'ed peers that run the DCUtR relay/hole-punching upgrade
  // (the paper's Section 3.1 notes it as under test; 0 reproduces the
  // paper's world). Relays are the bootstrap peers.
  double dcutr_share = 0.0;
  // Hydra boosters (the paper's Section 8 future work): stable,
  // well-provisioned machines each running `hydra_heads` DHT server
  // identities over one shared record store. 0 reproduces the paper's
  // measured world.
  std::size_t hydra_count = 0;
  std::size_t hydra_heads = 10;
  // Network indexers (delegated content routing, docs/ROUTING.md):
  // stable, well-provisioned nodes placed round-robin across regions,
  // exempt from churn. 0 reproduces the paper's measured world.
  std::size_t indexer_count = 0;
  indexer::IndexerConfig indexer;
};

// Deterministic PeerID for bulk simulation peers: identity-multihash
// framing identical to Ed25519 PeerIDs, derived by hashing the index
// (real key derivation would dominate world construction time).
multiformats::PeerId synthetic_peer_id(std::uint64_t n);

class World {
 public:
  explicit World(const WorldConfig& config);

  sim::Simulator& simulator() { return simulator_; }
  sim::Network& network() { return *network_; }
  sim::ChurnProcess& churn() { return *churn_; }

  sim::Time now() const { return simulator_.now(); }
  std::uint64_t run() { return simulator_.run(); }
  std::uint64_t run_until(sim::Time deadline) {
    return simulator_.run_until(deadline);
  }

  std::size_t size() const { return dht_nodes_.size(); }
  dht::DhtNode& dht(std::size_t i) { return *dht_nodes_[i]; }
  const PeerProfile& profile(std::size_t i) const {
    return population_.peers[i];
  }
  const GeoDatabase& geodb() const { return population_.geodb; }
  dht::PeerRef ref(std::size_t i) const { return dht_nodes_[i]->self(); }

  // The six well-known bootstrap peers (Section 2.2): stable, dialable,
  // exempt from churn.
  std::vector<dht::PeerRef> bootstrap_refs() const;

  const WorldConfig& config() const { return config_; }

  // Fraction of world peers currently online (diagnostics).
  double online_fraction() const;

  // --- Network indexers (delegated routing) -------------------------------

  std::size_t indexer_count() const { return indexers_.size(); }
  indexer::Indexer& indexer(std::size_t i) { return *indexers_[i]; }

  // Routing config for a measurement node wanting `mode` against this
  // world's indexers (their NodeIds in construction order).
  routing::RoutingConfig routing_config(routing::RoutingConfig::Mode mode) const;

 private:
  void build_nodes();
  void build_hydras();
  void build_indexers();
  void seed_routing_tables();
  void start_churn();

  WorldConfig config_;
  sim::Simulator simulator_;
  sim::LatencyModel latency_;
  std::unique_ptr<sim::Network> network_;
  // One endpoint per node, in node order. A deque, so an endpoint never
  // moves once its engines hold it; declared before the engines so it
  // outlives them.
  std::deque<transport::SimTransport> endpoints_;
  Population population_;
  // Every DHT node's routing table points into this one directory.
  dht::PeerDirectory directory_;
  std::vector<std::unique_ptr<dht::DhtNode>> dht_nodes_;
  std::vector<std::unique_ptr<dht::RecordStore>> hydra_stores_;
  std::vector<std::unique_ptr<indexer::Indexer>> indexers_;
  std::unique_ptr<sim::ChurnProcess> churn_;
  sim::Rng rng_;
};

}  // namespace ipfs::world
