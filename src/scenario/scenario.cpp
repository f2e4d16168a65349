#include "scenario/scenario.h"

#include <algorithm>
#include <string>

#include "crypto/sha256.h"
#include "world/geography.h"

namespace ipfs::scenario {

multiformats::PeerId synthetic_peer_id(std::uint64_t n) {
  std::uint8_t seed[8];
  for (int i = 0; i < 8; ++i) seed[i] = static_cast<std::uint8_t>(n >> (8 * i));
  const auto digest = crypto::sha256(std::span<const std::uint8_t>(seed, 8));
  crypto::Ed25519PublicKey key;
  std::copy(digest.begin(), digest.end(), key.begin());
  return multiformats::PeerId::from_public_key(key);
}

multiformats::Multiaddr synthetic_address(std::uint32_t n) {
  const std::string ip = std::to_string(10 + (n >> 16)) + "." +
                         std::to_string((n >> 8) & 0xff) + "." +
                         std::to_string(n & 0xff) + ".1";
  return multiformats::make_tcp_multiaddr(ip, 4001);
}

ScenarioBuilder& ScenarioBuilder::peers(std::size_t n) {
  peers_ = n;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::seed(std::uint64_t s) {
  seed_ = s;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::regions(
    std::vector<std::vector<double>> one_way_ms, double jitter_low,
    double jitter_high) {
  latency_matrix_ = std::move(one_way_ms);
  jitter_low_ = jitter_low;
  jitter_high_ = jitter_high;
  world_geography_ = false;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::single_region(double one_way_ms) {
  return regions({{one_way_ms}}, 1.0, 1.0);
}

ScenarioBuilder& ScenarioBuilder::world_geography() {
  world_geography_ = true;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::undialable_fraction(double f) {
  undialable_fraction_ = f;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::dht_servers(bool enable) {
  dht_servers_ = enable;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::pubsub(bool enable) {
  pubsub_ = enable;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::pubsub_config(pubsub::PubsubConfig config) {
  pubsub_config_ = config;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::indexers(std::size_t n) {
  indexer_count_ = n;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::indexer_config(indexer::IndexerConfig config) {
  indexer_config_ = config;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::faults(sim::FaultConfig config) {
  fault_config_ = config;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::sybils(adversary::SybilConfig config) {
  ensure_attack().sybil = config;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::eclipse(const dht::Key& target,
                                          adversary::EclipseConfig config) {
  adversary::AttackConfig& attack = ensure_attack();
  attack.eclipse_target = target;
  attack.eclipse = config;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::flash_crowd(
    adversary::FlashCrowdConfig config) {
  ensure_attack().flash_crowd = config;
  return *this;
}

adversary::AttackConfig& ScenarioBuilder::ensure_attack() {
  if (!attack_config_) attack_config_.emplace();
  return *attack_config_;
}

ScenarioBuilder& ScenarioBuilder::trace_capacity(std::size_t capacity) {
  trace_capacity_ = capacity;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::churn(bool enable) {
  enable_churn_ = enable;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::bootstrap_count(std::size_t n) {
  bootstrap_count_ = n;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::max_routing_entries(std::size_t n) {
  max_routing_entries_ = n;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::dcutr_share(double share) {
  dcutr_share_ = share;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::hydra(std::size_t count, std::size_t heads) {
  hydra_count_ = count;
  hydra_heads_ = heads;
  return *this;
}

Scenario ScenarioBuilder::build() const {
  Scenario scenario;
  scenario.simulator_ = std::make_unique<sim::Simulator>();
  scenario.latency_ = std::make_unique<sim::LatencyModel>(
      world_geography_
          ? world::default_latency_model()
          : sim::LatencyModel(latency_matrix_, jitter_low_, jitter_high_));
  scenario.network_ = std::make_unique<sim::Network>(
      *scenario.simulator_, *scenario.latency_, seed_);
  if (trace_capacity_ > 0)
    scenario.network_->metrics().set_trace_capacity(trace_capacity_);

  // Dialability draws come from a dedicated fork so that leaving the
  // knob unset keeps every other seeded stream (including the routing
  // sample below, which pre-dates the knob) bit-identical.
  sim::Rng dial_rng = sim::Rng(seed_).fork("scenario.dialable");
  scenario.nodes_.reserve(peers_);
  for (std::size_t i = 0; i < peers_; ++i) {
    sim::NodeConfig config;
    if (undialable_fraction_ && dial_rng.chance(*undialable_fraction_))
      config.dialable = false;
    scenario.endpoints_.push_back(
        std::make_unique<transport::SimTransport>(*scenario.network_, config));
    scenario.nodes_.push_back(scenario.endpoints_.back()->local());
  }

  if (dht_servers_) {
    sim::Rng rng(seed_);
    scenario.directory_ = std::make_unique<dht::PeerDirectory>();
    scenario.dht_nodes_.reserve(peers_);
    scenario.refs_.reserve(peers_);
    for (std::size_t i = 0; i < peers_; ++i) {
      auto dht = std::make_unique<dht::DhtNode>(
          *scenario.endpoints_[i], synthetic_peer_id(i),
          multiformats::AddressList{
              synthetic_address(static_cast<std::uint32_t>(i))},
          /*shared_store=*/nullptr, scenario.directory_.get());
      dht->force_mode(dht::DhtNode::Mode::kServer);
      dht->attach_to_network();
      scenario.dht_nodes_.push_back(std::move(dht));
      scenario.refs_.push_back(scenario.dht_nodes_.back()->self());
    }
    // Pre-seed routing tables from a random sample of the swarm,
    // standing in for an already-converged network.
    for (auto& node : scenario.dht_nodes_) {
      const std::size_t sample = std::min<std::size_t>(peers_ - 1, 40);
      for (std::size_t j = 0; j < sample; ++j) {
        const auto pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(peers_) - 1));
        if (scenario.refs_[pick].id == node->self().id) continue;
        node->routing_table().upsert(scenario.refs_[pick]);
      }
    }
  }

  if (pubsub_) {
    pubsub::PubsubConfig engine_config = pubsub_config_;
    if (engine_config.seed == 0) engine_config.seed = seed_;
    scenario.pubsub_nodes_.reserve(peers_);
    for (std::size_t i = 0; i < peers_; ++i) {
      transport::Transport& endpoint = *scenario.endpoints_[i];
      scenario.pubsub_nodes_.push_back(
          std::make_unique<pubsub::Pubsub>(endpoint, engine_config));
      // Multiplex: DHT traffic first (when servers exist), gossip second.
      pubsub::Pubsub* engine = scenario.pubsub_nodes_.back().get();
      dht::DhtNode* dht =
          dht_servers_ ? scenario.dht_nodes_[i].get() : nullptr;
      endpoint.set_message_handler(
          [dht, engine](sim::NodeId from, const sim::MessagePtr& message) {
            if (dht != nullptr && dht->handle_message(from, message)) return;
            engine->handle_message(from, message);
          });
    }
    // Ambient peer discovery stands in for a converged swarm: each engine
    // learns a few random peers, like the routing pre-seed above. The
    // dedicated fork keeps pubsub-off scenarios bit-identical.
    sim::Rng pubsub_rng = sim::Rng(seed_).fork("scenario.pubsub");
    for (std::size_t i = 0; i < peers_ && peers_ > 1; ++i) {
      const std::size_t sample = std::min<std::size_t>(peers_ - 1, 10);
      for (std::size_t j = 0; j < sample; ++j) {
        const auto pick = static_cast<std::size_t>(pubsub_rng.uniform_int(
            0, static_cast<std::int64_t>(peers_) - 1));
        if (pick == i) continue;
        scenario.pubsub_nodes_[i]->add_candidate_peer(scenario.nodes_[pick]);
      }
    }
  }

  // Indexers go in last — after every peer node — so turning the knob
  // leaves pre-existing node ids and rng streams bit-identical. They
  // draw no randomness of their own.
  scenario.routing_.mode = routing::RoutingConfig::Mode::kRace;
  for (std::size_t i = 0; i < indexer_count_; ++i) {
    scenario.endpoints_.push_back(std::make_unique<transport::SimTransport>(
        *scenario.network_, indexer_config_.net));
    scenario.indexers_.push_back(std::make_unique<indexer::Indexer>(
        *scenario.endpoints_.back(), indexer_config_));
    scenario.routing_.indexers.push_back(scenario.indexers_.back()->node());
  }

  if (fault_config_) {
    scenario.faults_ = std::make_unique<sim::FaultPlan>(
        *scenario.network_, *fault_config_, seed_);
  }

  // Attacker nodes go in dead last — after peers and indexers — so a
  // switched-off attack leaves every honest node id and rng stream
  // bit-identical. The plan is constructed unarmed; with DHT servers the
  // whole swarm is pre-registered as flood/announce victims.
  if (attack_config_ && attack_config_->any()) {
    scenario.attack_ = std::make_unique<adversary::AttackPlan>(
        *scenario.network_, *attack_config_, seed_);
    if (dht_servers_)
      for (const dht::PeerRef& ref : scenario.refs_)
        scenario.attack_->add_victim(ref);
  }
  return scenario;
}

world::WorldConfig ScenarioBuilder::world_config() const {
  world::WorldConfig config;
  config.population.peer_count = peers_;
  if (undialable_fraction_)
    config.population.undialable_share = *undialable_fraction_;
  config.seed = seed_;
  config.enable_churn = enable_churn_;
  config.bootstrap_count = bootstrap_count_;
  config.max_routing_entries = max_routing_entries_;
  config.dcutr_share = dcutr_share_;
  config.hydra_count = hydra_count_;
  config.hydra_heads = hydra_heads_;
  config.indexer_count = indexer_count_;
  config.indexer = indexer_config_;
  return config;
}

std::unique_ptr<world::World> ScenarioBuilder::build_world() const {
  return std::make_unique<world::World>(world_config());
}

}  // namespace ipfs::scenario
