#include "adversary/adversary.h"

#include <algorithm>
#include <string>
#include <utility>

#include "crypto/ed25519.h"
#include "crypto/sha256.h"

namespace ipfs::adversary {

namespace {

// Real nodes fronting the forged Sybil identities (dialable malicious
// servers; the forged PeerRefs point at them).
constexpr std::size_t kSybilFrontNodes = 2;
// Every attacker node sits in this latency region.
constexpr int kAttackerRegion = 0;

}  // namespace

multiformats::PeerId AttackPlan::forged_peer_id(std::uint64_t n) {
  std::uint8_t seed[9];
  for (int i = 0; i < 8; ++i) seed[i] = static_cast<std::uint8_t>(n >> (8 * i));
  seed[8] = 0xad;  // domain tag: never aliases a synthetic honest identity
  const auto digest = crypto::sha256(std::span<const std::uint8_t>(seed, 9));
  crypto::Ed25519PublicKey key;
  std::copy(digest.begin(), digest.end(), key.begin());
  return multiformats::PeerId::from_public_key(key);
}

multiformats::Multiaddr AttackPlan::attacker_address(std::uint32_t n) {
  const std::string ip = "66.6." + std::to_string((n >> 8) & 0xff) + "." +
                         std::to_string(n & 0xff);
  return multiformats::make_tcp_multiaddr(ip, 4001);
}

AttackPlan::AttackPlan(sim::Network& network, AttackConfig config,
                       std::uint64_t seed)
    : network_(network),
      config_(std::move(config)),
      flash_rng_(sim::Rng(seed).fork("adversary.flash")) {
  const auto install_handler = [this](sim::NodeId node) {
    network_.set_request_handler(
        node, [this, node](sim::NodeId from, const sim::MessagePtr& message,
                           auto respond) {
          handle_attacker_request(node, from, message, respond);
        });
    network_.set_message_handler(
        node, [this](sim::NodeId, const sim::MessagePtr& message) {
          if (message->kind() == sim::MessageKind::kAddProviderRequest)
            ++counters_.provider_records_swallowed;
        });
  };
  const sim::NodeConfig attacker_cfg =
      sim::NodeConfig{}.with_region(kAttackerRegion);

  if (config_.sybil) {
    for (std::size_t i = 0; i < kSybilFrontNodes; ++i) {
      const sim::NodeId node = network_.add_node(attacker_cfg);
      sybil_fronts_.push_back(node);
      install_handler(node);
    }
  }
  if (config_.eclipse_target) {
    // Mining cost is ~2^(min_cpl) hashes per attacker; keep min_cpl
    // modest (the header's default beats any honest swarm below ~4096).
    const dht::Key& target = *config_.eclipse_target;
    for (std::size_t i = 0; i < config_.eclipse.attackers; ++i) {
      const sim::NodeId node = network_.add_node(attacker_cfg);
      install_handler(node);
      eclipse_refs_.push_back(
          mint_ref(node, [this, &target](const dht::Key& key) {
            return key.common_prefix_len(target) >= config_.eclipse.min_cpl;
          }));
    }
    // The poisoned records' provider: a NAT'ed node that never answers a
    // dial, so victims burn the transport timeout before giving up.
    ghost_node_ = network_.add_node(
        sim::NodeConfig{}.with_region(kAttackerRegion).with_dialable(false));
    ghost_ref_ = mint_ref(ghost_node_, [](const dht::Key&) { return true; });
  }
  if (config_.partition) {
    for (std::size_t group = 0; group < config_.partition->groups.size();
         ++group)
      for (const int region : config_.partition->groups[group])
        region_group_[region] = static_cast<int>(group);
  }
}

AttackPlan::~AttackPlan() {
  for (auto& timer : event_timers_) timer.cancel();
  detach();
}

dht::PeerRef AttackPlan::mint_ref(
    sim::NodeId node, const std::function<bool(const dht::Key&)>& accept) {
  for (;;) {
    const std::uint64_t n = mint_counter_++;
    multiformats::PeerId id = forged_peer_id(n);
    const dht::Key key = dht::Key::for_peer(id);
    if (!accept(key)) continue;
    forged_keys_.insert(key);
    dht::PeerRef ref;
    ref.id = std::move(id);
    ref.node = node;
    ref.addresses = {attacker_address(static_cast<std::uint32_t>(n))};
    return ref;
  }
}

void AttackPlan::add_victim(const dht::PeerRef& victim) {
  victims_.push_back(victim);
  victim_keys_.push_back(dht::Key::for_peer(victim.id));
  sybils_per_victim_.emplace_back();
}

void AttackPlan::set_flash_request_handler(FlashRequestHandler handler) {
  flash_handler_ = std::move(handler);
}

bool AttackPlan::is_adversarial_id(const multiformats::PeerId& id) const {
  return forged_keys_.contains(dht::Key::for_peer(id));
}

void AttackPlan::arm() {
  if (armed_) return;
  armed_ = true;
  armed_at_ = network_.now();

  if (config_.partition && !config_.partition->groups.empty()) {
    inner_ = network_.fault_injector();
    network_.set_fault_injector(this);
    installed_ = true;
  }

  if (config_.sybil) {
    const SybilConfig& sybil = *config_.sybil;
    for (std::size_t v = 0; v < victims_.size(); ++v) {
      if (!sybils_per_victim_[v].empty()) continue;  // re-arm after disarm
      for (std::size_t s = 0; s < sybil.per_victim; ++s) {
        const dht::Key& victim_key = victim_keys_[v];
        const sim::NodeId front = sybil_fronts_[s % sybil_fronts_.size()];
        sybils_per_victim_[v].push_back(mint_ref(
            front, [&victim_key, &sybil](const dht::Key& key) {
              return key.common_prefix_len(victim_key) == sybil.target_cpl;
            }));
        ++counters_.sybil_ids_minted;
      }
    }
    for (std::size_t round = 0; round < sybil.rounds; ++round)
      schedule_flood_round(round);
  }

  if (config_.eclipse_target) {
    event_timers_.push_back(network_.schedule_after(
        config_.eclipse.announce_at, [this] { announce_eclipse(); }));
  }

  if (config_.flash_crowd && config_.flash_crowd->requests > 0) {
    const FlashCrowdConfig& flash = *config_.flash_crowd;
    for (std::size_t slot = 0; slot < flash.requests; ++slot) {
      const sim::Duration at =
          flash.start + sim::uniform_duration(flash_rng_, 0, flash.window);
      event_timers_.push_back(
          network_.schedule_after(at, [this, slot] {
            ++counters_.flash_requests;
            if (flash_handler_) flash_handler_(slot);
          }));
    }
  }
}

void AttackPlan::disarm() {
  if (!armed_) return;
  armed_ = false;
  for (auto& timer : event_timers_) timer.cancel();
  event_timers_.clear();
}

void AttackPlan::detach() {
  if (!installed_) return;
  network_.set_fault_injector(inner_);
  inner_ = nullptr;
  installed_ = false;
}

void AttackPlan::schedule_flood_round(std::size_t round) {
  const SybilConfig& sybil = *config_.sybil;
  const sim::Duration at =
      sybil.start + static_cast<sim::Duration>(round) * sybil.interval;
  event_timers_.push_back(network_.schedule_after(at, [this] {
    for (std::size_t v = 0; v < victims_.size(); ++v) {
      const dht::PeerRef& victim = victims_[v];
      if (victim.node == sim::kInvalidNode || !network_.online(victim.node))
        continue;
      for (const dht::PeerRef& sybil_ref : sybils_per_victim_[v]) {
        const sim::NodeId front = sybil_ref.node;
        const sim::NodeId target = victim.node;
        // The flood vehicle is an ordinary FIND_NODE stamped with the
        // forged server-mode requester: the victim's identify side
        // effect upserts the sybil into exactly the mined bucket.
        auto request = std::make_shared<dht::FindNodeRequest>();
        request->requester = sybil_ref;
        request->requester_is_server = true;
        request->target = dht::Key::for_peer(sybil_ref.id);
        network_.connect(
            front, target,
            [this, front, target, request = std::move(request)](
                bool ok, sim::Duration) {
              if (!ok || !armed_) return;
              ++counters_.flood_requests_sent;
              network_.request(front, target, request,
                               dht::response_size_for(0), dht::kRpcTimeout,
                               [](sim::RpcStatus, const sim::MessagePtr&) {});
            });
      }
    }
  }));
}

void AttackPlan::announce_eclipse() {
  for (const dht::PeerRef& ref : eclipse_refs_) {
    for (const dht::PeerRef& victim : victims_) {
      if (victim.node == sim::kInvalidNode || !network_.online(victim.node))
        continue;
      const sim::NodeId target = victim.node;
      auto request = std::make_shared<dht::FindNodeRequest>();
      request->requester = ref;
      request->requester_is_server = true;
      request->target = dht::Key::for_peer(ref.id);
      network_.connect(ref.node, target,
                       [this, from = ref.node, target,
                        request = std::move(request)](bool ok, sim::Duration) {
                         if (!ok || !armed_) return;
                         network_.request(
                             from, target, request, dht::response_size_for(0),
                             dht::kRpcTimeout,
                             [](sim::RpcStatus, const sim::MessagePtr&) {});
                       });
    }
  }
}

void AttackPlan::handle_attacker_request(
    sim::NodeId self, sim::NodeId from, const sim::MessagePtr& message,
    const std::function<void(sim::MessagePtr, std::size_t)>& respond) {
  (void)self;
  (void)from;
  const sim::MessageKind kind = message->kind();
  if (kind == sim::MessageKind::kFindNodeRequest) {
    const auto* find = static_cast<const dht::FindNodeRequest*>(message.get());
    auto response = std::make_shared<dht::FindNodeResponse>();
    if (armed_ && config_.eclipse_target &&
        find->target == *config_.eclipse_target) {
      // Walks for the target never escape: every "closer" peer is a
      // fellow attacker, all mined closer than any honest node.
      response->closer = eclipse_refs_;
      ++counters_.eclipse_queries_answered;
    }
    const std::size_t bytes = dht::response_size_for(response->closer.size());
    respond(std::move(response), bytes);
    return;
  }
  if (kind == sim::MessageKind::kGetProvidersRequest) {
    const auto* get =
        static_cast<const dht::GetProvidersRequest*>(message.get());
    auto response = std::make_shared<dht::GetProvidersResponse>();
    if (armed_ && config_.eclipse_target &&
        get->key == *config_.eclipse_target) {
      // A provider record pointing at the undialable ghost instead of a
      // claim of ignorance: the walk terminates "successfully" and the
      // fetch then dies on a dead provider.
      dht::ProviderRecord record;
      record.provider = ghost_ref_;
      record.received_at = network_.now();
      response->providers.push_back(std::move(record));
      ++counters_.poisoned_records_served;
      response->closer = eclipse_refs_;
      ++counters_.eclipse_queries_answered;
    }
    const std::size_t bytes =
        dht::response_size_for(response->closer.size(),
                               response->providers.size() * dht::kPeerRefBytes);
    respond(std::move(response), bytes);
    return;
  }
  if (kind == sim::MessageKind::kDialBackRequest) {
    auto response = std::make_shared<dht::DialBackResponse>();
    response->reachable = true;
    respond(std::move(response), dht::kRequestBaseBytes);
    return;
  }
  // Anything else (GetValue, crawler sweeps, Bitswap probes): an empty
  // FindNodeResponse carries no peer and no record, and a caller expecting
  // another kind ignores it, so it surfaces as a clean miss, never a hang.
  respond(std::make_shared<dht::FindNodeResponse>(), dht::kRequestBaseBytes);
}

bool AttackPlan::partition_active() const {
  if (!armed_ || !config_.partition) return false;
  const sim::Time now = network_.now();
  return now >= armed_at_ + config_.partition->start &&
         now < armed_at_ + config_.partition->heal_at;
}

bool AttackPlan::partition_blocks(sim::NodeId from, sim::NodeId to) {
  if (!partition_active()) return false;
  const int a = group_of(from);
  const int b = group_of(to);
  return a >= 0 && b >= 0 && a != b;
}

int AttackPlan::group_of(sim::NodeId node) const {
  const auto it = region_group_.find(network_.config(node).region);
  return it == region_group_.end() ? -1 : it->second;
}

bool AttackPlan::drop_message(sim::NodeId from, sim::NodeId to) {
  if (partition_blocks(from, to)) {
    ++counters_.partition_messages_dropped;
    return true;
  }
  return inner_ != nullptr && inner_->drop_message(from, to);
}

bool AttackPlan::duplicate_message(sim::NodeId from, sim::NodeId to) {
  return inner_ != nullptr && inner_->duplicate_message(from, to);
}

sim::Duration AttackPlan::reorder_delay(sim::NodeId from, sim::NodeId to) {
  return inner_ != nullptr ? inner_->reorder_delay(from, to) : 0;
}

bool AttackPlan::fail_dial(sim::NodeId from, sim::NodeId to) {
  if (partition_blocks(from, to)) {
    ++counters_.partition_dials_blocked;
    return true;
  }
  return inner_ != nullptr && inner_->fail_dial(from, to);
}

double AttackPlan::latency_factor(sim::NodeId a, sim::NodeId b) {
  return inner_ != nullptr ? inner_->latency_factor(a, b) : 1.0;
}

}  // namespace ipfs::adversary
