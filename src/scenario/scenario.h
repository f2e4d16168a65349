// ScenarioBuilder: the one way experiments construct simulations.
//
// Every bench, fuzz schedule and protocol test used to hand-roll the
// same four-step dance — make a Simulator, pick a LatencyModel, wire a
// Network, loop add_node with a NodeConfig — with small, easy-to-drift
// variations. The builder folds that into a fluent description:
//
//   auto s = scenario::ScenarioBuilder()
//                .peers(60)
//                .seed(42)
//                .single_region(20.0)
//                .dht_servers(true)
//                .build();
//   s.dht(0).find_node(...);
//   s.simulator().run();
//
// Two build modes share the knob surface:
//
//  - build() assembles a Scenario: a bare fabric (Simulator + Latency +
//    Network) plus `peers` nodes, each with the one transport endpoint
//    that every engine on it shares, optionally wrapped in DhtNode
//    servers with routing tables pre-seeded from a random sample — the
//    converged mini-swarm the protocol tests want.
//  - build_world() delegates to world::World: full geography, churn,
//    NAT'ed population and Kademlia convergence — the paper-scale swarm
//    the benches want. Swarm-only knobs (regions, dht_servers, ...)
//    are ignored there; world-only knobs (churn, hydra, ...) are
//    ignored by build().
//
// Both modes are deterministic functions of seed(): the builder never
// consults global state, so a Scenario rebuilt from the same chain is
// bit-identical.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "adversary/adversary.h"
#include "dht/dht_node.h"
#include "multiformats/multiaddr.h"
#include "multiformats/peerid.h"
#include "pubsub/pubsub.h"
#include "sim/faults.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "transport/sim_transport.h"
#include "world/world.h"

namespace ipfs::scenario {

// Deterministic PeerID for synthetic swarm peers: identity-multihash
// framing identical to Ed25519 PeerIDs, derived by hashing the index.
// (world::synthetic_peer_id is the domain-separated sibling used for
// world populations; the two must stay distinct so a test swarm and a
// world never alias identities.)
multiformats::PeerId synthetic_peer_id(std::uint64_t n);

// Deterministic 10.x.y.1 TCP multiaddr for peer n.
multiformats::Multiaddr synthetic_address(std::uint32_t n);

// A built swarm scenario. Owns the whole stack; movable, not copyable.
// dht_nodes is empty unless dht_servers(true) was set.
class Scenario {
 public:
  sim::Simulator& simulator() { return *simulator_; }
  sim::Network& network() { return *network_; }

  std::size_t size() const { return nodes_.size(); }
  sim::NodeId node(std::size_t i) const { return nodes_[i]; }
  const std::vector<sim::NodeId>& nodes() const { return nodes_; }

  dht::DhtNode& dht(std::size_t i) { return *dht_nodes_[i]; }
  // Peer i's one transport endpoint: the DHT server and pubsub engine on
  // the peer run over it, and tests drive transport-facing APIs (routers,
  // advertisements) through it on scenarios that skipped those layers.
  transport::Transport& transport(std::size_t i) { return *endpoints_[i]; }
  const dht::PeerRef& ref(std::size_t i) const { return refs_[i]; }
  const std::vector<dht::PeerRef>& refs() const { return refs_; }

  // Empty unless pubsub(true) was set.
  pubsub::Pubsub& pubsub(std::size_t i) { return *pubsub_nodes_[i]; }

  // Null unless faults() was configured. The plan is constructed but
  // not armed; call faults().arm() to start background fault processes.
  // It is the one crash controller: a churn storm is set through
  // FaultConfig and covers the nodes put under manage_crashes().
  sim::FaultPlan* faults() { return faults_.get(); }

  // Null unless an attack knob (sybils/eclipse/flash_crowd) was
  // configured. Constructed but not armed; with dht_servers(true) every
  // peer is pre-registered as a victim. Arm after faults()->arm() and
  // detach before faults()->detach() — the partition decorator wraps
  // whatever injector is installed at arm().
  adversary::AttackPlan* attack() { return attack_.get(); }

  // Empty unless indexers(n) was set. Indexer nodes are appended to the
  // network after every peer node so enabling them leaves pre-existing
  // node ids and seeded rng streams bit-identical.
  std::size_t indexer_count() const { return indexers_.size(); }
  indexer::Indexer& indexer(std::size_t i) { return *indexers_[i]; }

  // Race mode over the NodeIds of every built indexer — what an
  // IpfsNodeConfig wants.
  const routing::RoutingConfig& routing_config() const { return routing_; }

 private:
  friend class ScenarioBuilder;

  std::unique_ptr<sim::Simulator> simulator_;
  std::unique_ptr<sim::LatencyModel> latency_;
  std::unique_ptr<sim::Network> network_;
  std::vector<sim::NodeId> nodes_;
  // One endpoint per node, owned here and handed to every engine on the
  // node: the peers' (index-aligned with nodes_), then the indexers'.
  // Declared before the engines so it outlives them.
  std::vector<std::unique_ptr<transport::SimTransport>> endpoints_;
  // Shared by every DHT server's routing table; null without servers.
  std::unique_ptr<dht::PeerDirectory> directory_;
  std::vector<std::unique_ptr<dht::DhtNode>> dht_nodes_;
  // Declared after dht_nodes_ so engines (holding Timer handles, which
  // read simulator_ when cancelled) are destroyed before the fabric
  // members above them.
  std::vector<std::unique_ptr<pubsub::Pubsub>> pubsub_nodes_;
  std::vector<std::unique_ptr<indexer::Indexer>> indexers_;
  std::vector<dht::PeerRef> refs_;
  std::unique_ptr<sim::FaultPlan> faults_;
  // Declared after faults_: holds Timers into simulator_ and appends its
  // attacker nodes last, so it must unwind before the fabric.
  std::unique_ptr<adversary::AttackPlan> attack_;
  routing::RoutingConfig routing_;
};

class ScenarioBuilder {
 public:
  // ------------------------------------------------------ shared knobs
  ScenarioBuilder& peers(std::size_t n);
  ScenarioBuilder& seed(std::uint64_t s);

  // ------------------------------------------------------- swarm knobs
  // Latency geography for build(): an explicit one-way-ms matrix (with
  // the fabric's default multiplicative jitter), a single region with
  // jitter-free uniform latency (the tests' default), or the paper's
  // 8-region world matrix.
  ScenarioBuilder& regions(std::vector<std::vector<double>> one_way_ms,
                           double jitter_low = 0.95,
                           double jitter_high = 1.25);
  ScenarioBuilder& single_region(double one_way_ms);
  ScenarioBuilder& world_geography();

  // Marks an undialable share of peers. In build(), each peer is drawn
  // undialable with probability f from a dedicated rng fork (so f = 0
  // leaves every other draw sequence untouched). In build_world() this
  // maps onto PopulationConfig::undialable_share.
  ScenarioBuilder& undialable_fraction(double f);

  // Wraps every node in a dht::DhtNode server (synthetic identity,
  // attached handlers) and pre-seeds routing tables from a random
  // sample of 40 picks per node.
  ScenarioBuilder& dht_servers(bool enable = true);

  // Wraps every node in a pubsub::Pubsub engine. Each engine's candidate
  // set is pre-seeded with 10 random peers drawn from a dedicated rng
  // fork (so enabling pubsub leaves every pre-existing seeded stream
  // bit-identical). Composes with dht_servers(): the message handler
  // multiplexes DHT first, then pubsub.
  ScenarioBuilder& pubsub(bool enable = true);
  ScenarioBuilder& pubsub_config(pubsub::PubsubConfig config);

  // Network indexers for delegated content routing (docs/ROUTING.md).
  // build() appends `n` indexer nodes after every peer node; build_world()
  // maps the knobs onto WorldConfig::indexer_count / ::indexer. The
  // scenario's routing_config() races the built indexers against the
  // DHT walk; World::routing_config(mode) takes the mode as an argument.
  ScenarioBuilder& indexers(std::size_t n);
  ScenarioBuilder& indexer_config(indexer::IndexerConfig config);

  // Constructs (but does not arm) a FaultPlan over the built network.
  ScenarioBuilder& faults(sim::FaultConfig config);

  // ------------------------------------------------------ attack knobs
  // Adversarial controllers (docs/ADVERSARY.md). Any of these makes
  // build() construct an (unarmed) adversary::AttackPlan, reachable via
  // Scenario::attack(). Attacker nodes are appended after indexer nodes,
  // so switched-off attacks leave node ids and every seeded rng stream
  // bit-identical. With dht_servers(true) each peer is pre-registered as
  // a flood/announce victim.
  ScenarioBuilder& sybils(adversary::SybilConfig config);
  ScenarioBuilder& eclipse(const dht::Key& target,
                           adversary::EclipseConfig config = {});
  ScenarioBuilder& flash_crowd(adversary::FlashCrowdConfig config);

  // Ring-buffer capacity of the metrics trace (0 keeps the default).
  ScenarioBuilder& trace_capacity(std::size_t capacity);

  // ------------------------------------------------------- world knobs
  ScenarioBuilder& churn(bool enable);
  ScenarioBuilder& bootstrap_count(std::size_t n);
  ScenarioBuilder& max_routing_entries(std::size_t n);
  ScenarioBuilder& dcutr_share(double share);
  ScenarioBuilder& hydra(std::size_t count, std::size_t heads);

  // ------------------------------------------------------------ builds
  Scenario build() const;
  std::unique_ptr<world::World> build_world() const;
  // The WorldConfig build_world() would use (for call sites that still
  // need to tweak a field the builder doesn't surface).
  world::WorldConfig world_config() const;

 private:
  adversary::AttackConfig& ensure_attack();

  std::size_t peers_ = 0;
  std::uint64_t seed_ = 42;

  std::vector<std::vector<double>> latency_matrix_{{20.0}};
  double jitter_low_ = 1.0;
  double jitter_high_ = 1.0;
  bool world_geography_ = false;

  std::optional<double> undialable_fraction_;
  bool dht_servers_ = false;
  bool pubsub_ = false;
  pubsub::PubsubConfig pubsub_config_{};
  std::optional<sim::FaultConfig> fault_config_;
  std::optional<adversary::AttackConfig> attack_config_;
  std::size_t trace_capacity_ = 0;
  std::size_t indexer_count_ = 0;
  indexer::IndexerConfig indexer_config_{};

  bool enable_churn_ = true;
  std::size_t bootstrap_count_ = 6;
  std::size_t max_routing_entries_ = 192;
  double dcutr_share_ = 0.0;
  std::size_t hydra_count_ = 0;
  std::size_t hydra_heads_ = 10;
};

}  // namespace ipfs::scenario
