#include "pubsub/pubsub.h"

#include <algorithm>
#include <utility>

namespace ipfs::pubsub {

namespace {

constexpr std::size_t kRpcBaseBytes = 16;
constexpr std::size_t kMessageIdBytes = 12;  // origin (4) + seqno (8)

// libp2p gossipsub v1.1 defaults.
constexpr std::size_t kGossipDegree = 6;  // D_lazy: IHAVE targets per heartbeat
constexpr std::size_t kPrunePx = 6;       // peers exchanged in a PRUNE
constexpr std::size_t kHistoryLength = 5;  // mcache windows kept for IWANT
constexpr std::size_t kHistoryGossip = 3;  // windows advertised via IHAVE
constexpr sim::Duration kFanoutTtl = sim::seconds(60);
constexpr std::size_t kSeenCapacity = 8192;  // dedup entries (FIFO eviction)

// Mixes the node id into the engine seed so every engine draws an
// independent stream even when a scenario hands all of them the same
// config seed.
std::uint64_t engine_seed(std::uint64_t seed, sim::NodeId node) {
  return seed ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(node) + 1));
}

}  // namespace

std::size_t GossipRpc::wire_bytes() const {
  std::size_t bytes = kRpcBaseBytes;
  for (const auto& sub : subscriptions) bytes += sub.topic.size() + 2;
  for (const auto& message : publish)
    bytes += message.topic.size() + message.data.size() + kMessageIdBytes + 4;
  for (const auto& control : ihave)
    bytes += control.topic.size() + control.ids.size() * kMessageIdBytes + 4;
  for (const auto& control : iwant)
    bytes += control.ids.size() * kMessageIdBytes + 4;
  for (const auto& control : graft) bytes += control.topic.size() + 4;
  for (const auto& control : prune)
    bytes += control.topic.size() + control.px.size() * 4 + 4;
  return bytes;
}

Pubsub::Pubsub(transport::Transport& transport, PubsubConfig config)
    : transport_(transport),
      node_(transport.local()),
      config_(config),
      rng_(sim::Rng(engine_seed(config.seed, node_)).fork("pubsub")) {
  // Stagger heartbeats across the swarm so 10k engines don't fire in one
  // simulated instant. The phase comes from the engine's private stream,
  // so it is deterministic in (seed, node).
  heartbeat_phase_ = static_cast<sim::Duration>(rng_.uniform_int(
      0, std::max<std::int64_t>(config_.heartbeat_interval - 1, 0)));
  mcache_windows_.emplace_back();
  arm_heartbeat();
}

Pubsub::~Pubsub() { heartbeat_timer_.cancel(); }

void Pubsub::arm_heartbeat() {
  const sim::Duration delay =
      heartbeat_phase_ > 0 ? heartbeat_phase_ : config_.heartbeat_interval;
  heartbeat_phase_ = 0;  // only the first arm is phase-shifted
  heartbeat_timer_ =
      transport_.schedule_daemon_after(delay, [this] {
        heartbeat();
        arm_heartbeat();
      });
}

void Pubsub::subscribe(const Topic& topic, DeliverFn deliver) {
  TopicState& state = topics_[topic];
  state.subscribed = true;
  state.deliver = std::move(deliver);
  state.fanout.clear();  // mesh supersedes fanout
  state.fanout_expires = 0;
  if (state.join_span == 0)
    state.join_span =
        transport_.metrics().begin_span("pubsub.join", node_, topic);
  transport_.metrics().counter("pubsub.subscribe").inc();

  // Announce to everyone we know; interested peers respond in kind and
  // the next heartbeats graft a mesh.
  for (const sim::NodeId peer : candidates_)
    announce_subscriptions(peer, {{topic, true}});
}

void Pubsub::unsubscribe(const Topic& topic) {
  const auto it = topics_.find(topic);
  if (it == topics_.end() || !it->second.subscribed) return;
  TopicState& state = it->second;
  state.subscribed = false;
  state.deliver = nullptr;
  if (state.join_span != 0) {
    transport_.metrics().end_span(state.join_span, false);
    state.join_span = 0;
  }
  transport_.metrics().counter("pubsub.unsubscribe").inc();

  // PRUNE the mesh, then tell every other known peer we are gone.
  const std::vector<sim::NodeId> old_mesh = std::move(state.mesh);
  state.mesh.clear();
  for (const sim::NodeId peer : old_mesh) {
    auto rpc = std::make_shared<GossipRpc>();
    rpc->prune.push_back({topic, {}});
    rpc->subscriptions.push_back({topic, false});
    transport_.metrics().counter("pubsub.prune_sent").inc();
    send_rpc(peer, std::move(rpc));
  }
  for (const sim::NodeId peer : candidates_) {
    if (std::find(old_mesh.begin(), old_mesh.end(), peer) != old_mesh.end())
      continue;  // already told above
    announce_subscriptions(peer, {{topic, false}});
  }
}

bool Pubsub::subscribed(const Topic& topic) const {
  const auto it = topics_.find(topic);
  return it != topics_.end() && it->second.subscribed;
}

MessageId Pubsub::publish(const Topic& topic, std::vector<std::uint8_t> data) {
  PubsubMessage message;
  message.id = MessageId{node_, next_seqno_++};
  message.topic = topic;
  message.data = std::move(data);

  mark_seen(message.id);
  mcache_windows_.front().push_back(message.id);
  mcache_[message.id] = message;
  transport_.metrics().counter("pubsub.publish").inc();
  transport_.metrics().instant("pubsub.publish", node_, topic,
                             message.id.seqno);

  TopicState& state = topics_[topic];
  if (state.subscribed) {
    if (state.deliver) {
      ++delivered_;
      transport_.metrics().counter("pubsub.deliver").inc();
      state.deliver(message);
    }
    forward_to_mesh(message, sim::kInvalidNode);
  } else {
    publish_via_fanout(state, topic, message);
  }
  return message.id;
}

void Pubsub::publish_via_fanout(TopicState& state, const Topic& topic,
                                const PubsubMessage& message) {
  const sim::Time now = transport_.now();
  // Drop fanout members that stopped being topic peers, then top up.
  std::erase_if(state.fanout, [&](sim::NodeId peer) {
    return std::find(state.peers.begin(), state.peers.end(), peer) ==
           state.peers.end();
  });
  if (state.fanout.size() < static_cast<std::size_t>(config_.degree)) {
    std::vector<sim::NodeId> pool;
    for (const sim::NodeId peer : state.peers)
      if (std::find(state.fanout.begin(), state.fanout.end(), peer) ==
          state.fanout.end())
        pool.push_back(peer);
    for (const sim::NodeId peer : sample(
             std::move(pool),
             static_cast<std::size_t>(config_.degree) - state.fanout.size()))
      state.fanout.push_back(peer);
  }
  state.fanout_expires = now + kFanoutTtl;

  for (const sim::NodeId peer : state.fanout) {
    auto rpc = std::make_shared<GossipRpc>();
    rpc->publish.push_back(message);
    transport_.metrics().counter("pubsub.fanout_sent").inc();
    send_rpc(peer, std::move(rpc));
  }
  (void)topic;
}

void Pubsub::add_candidate_peer(sim::NodeId peer) {
  remember_candidate(peer);
  std::vector<SubOpts> subs;
  for (const auto& [topic, state] : topics_)
    if (state.subscribed) subs.push_back({topic, true});
  if (!subs.empty()) announce_subscriptions(peer, std::move(subs));
}

void Pubsub::remember_candidate(sim::NodeId peer) {
  if (peer == node_ || peer == sim::kInvalidNode) return;
  if (std::find(candidates_.begin(), candidates_.end(), peer) !=
      candidates_.end())
    return;
  candidates_.push_back(peer);
}

void Pubsub::announce_subscriptions(sim::NodeId peer, std::vector<SubOpts> subs,
                                    bool reply) {
  auto rpc = std::make_shared<GossipRpc>();
  rpc->subscriptions = std::move(subs);
  rpc->announce_reply = reply;
  send_rpc(peer, std::move(rpc));
}

void Pubsub::send_rpc(sim::NodeId to, std::shared_ptr<GossipRpc> rpc) {
  if (rpc->empty()) return;
  const std::size_t bytes = rpc->wire_bytes();
  transport_.metrics().counter("pubsub.rpc_bytes").inc(bytes);
  ensure_connected(to, [this, to, rpc = std::move(rpc), bytes](bool ok) {
    if (!ok) return;  // dial failed; gossip is best-effort
    transport_.send(to, rpc, bytes);
  });
}

void Pubsub::ensure_connected(sim::NodeId peer,
                              std::function<void(bool)> then) {
  if (transport_.connected(peer)) {
    then(true);
    return;
  }
  transport_.connect(peer,
                   [then = std::move(then)](bool ok, sim::Duration) {
                     then(ok);
                   });
}

bool Pubsub::handle_message(sim::NodeId from, const sim::MessagePtr& message) {
  if (message->kind() != sim::MessageKind::kGossipRpc) return false;
  const auto* rpc = static_cast<const GossipRpc*>(message.get());
  remember_candidate(from);

  std::vector<SubOpts> announce_back;
  for (const auto& sub : rpc->subscriptions) {
    TopicState& state = topics_[sub.topic];
    auto it = std::find(state.peers.begin(), state.peers.end(), from);
    if (sub.subscribe) {
      if (it == state.peers.end()) state.peers.push_back(from);
      // Symmetric subscription exchange (see GossipRpc::announce_reply):
      // every plain announce gets our interest in reply — even from a
      // peer we already track, because the *sender* may have crashed and
      // lost its view of us. The reply flag stops the ping-pong.
      if (state.subscribed && !rpc->announce_reply)
        announce_back.push_back({sub.topic, true});
    } else {
      if (it != state.peers.end()) state.peers.erase(it);
      std::erase(state.mesh, from);
      std::erase(state.fanout, from);
    }
  }
  if (!announce_back.empty())
    announce_subscriptions(from, std::move(announce_back), /*reply=*/true);

  for (const auto& graft : rpc->graft) {
    transport_.metrics().counter("pubsub.graft_recv").inc();
    const auto it = topics_.find(graft.topic);
    if (it == topics_.end() || !it->second.subscribed) {
      // Not subscribed: refuse the graft so the peer looks elsewhere.
      auto reply = std::make_shared<GossipRpc>();
      reply->prune.push_back({graft.topic, {}});
      transport_.metrics().counter("pubsub.prune_sent").inc();
      send_rpc(from, std::move(reply));
      continue;
    }
    TopicState& state = it->second;
    if (std::find(state.peers.begin(), state.peers.end(), from) ==
        state.peers.end())
      state.peers.push_back(from);  // a graft implies topic interest
    if (std::find(state.mesh.begin(), state.mesh.end(), from) ==
        state.mesh.end()) {
      state.mesh.push_back(from);
      transport_.metrics().instant("pubsub.mesh_add", node_, graft.topic, 0,
                                 from);
      if (state.join_span != 0) {
        transport_.metrics().end_span(state.join_span, true);
        state.join_span = 0;
      }
    }
  }

  for (const auto& prune : rpc->prune) {
    transport_.metrics().counter("pubsub.prune_recv").inc();
    const auto it = topics_.find(prune.topic);
    if (it == topics_.end()) continue;
    TopicState& state = it->second;
    if (std::erase(state.mesh, from) > 0)
      transport_.metrics().instant("pubsub.mesh_drop", node_, prune.topic, 0,
                                 from);
    // Peer-exchange: the pruned peer hands us other topic members.
    for (const sim::NodeId px : prune.px) {
      if (px == node_ || px == from) continue;
      remember_candidate(px);
      if (std::find(state.peers.begin(), state.peers.end(), px) ==
          state.peers.end()) {
        state.peers.push_back(px);
        transport_.metrics().counter("pubsub.px_learned").inc();
      }
    }
  }

  for (const auto& message_in : rpc->publish) accept_message(from, message_in);

  for (const auto& ihave : rpc->ihave) {
    transport_.metrics().counter("pubsub.ihave_recv").inc();
    const auto it = topics_.find(ihave.topic);
    if (it == topics_.end() || !it->second.subscribed) continue;
    ControlIWant want;
    for (const MessageId& id : ihave.ids) {
      if (seen(id) || iwant_pending_.contains(id)) continue;
      iwant_pending_.insert(id);
      want.ids.push_back(id);
    }
    if (!want.ids.empty()) {
      auto reply = std::make_shared<GossipRpc>();
      reply->iwant.push_back(std::move(want));
      transport_.metrics().counter("pubsub.iwant_sent").inc();
      send_rpc(from, std::move(reply));
    }
  }

  for (const auto& iwant : rpc->iwant) {
    transport_.metrics().counter("pubsub.iwant_recv").inc();
    auto reply = std::make_shared<GossipRpc>();
    for (const MessageId& id : iwant.ids) {
      const auto it = mcache_.find(id);
      if (it != mcache_.end()) reply->publish.push_back(it->second);
    }
    if (!reply->publish.empty()) send_rpc(from, std::move(reply));
  }

  return true;
}

void Pubsub::accept_message(sim::NodeId from, const PubsubMessage& message) {
  if (seen(message.id)) {
    ++duplicates_;
    transport_.metrics().counter("pubsub.duplicate").inc();
    return;
  }
  mark_seen(message.id);
  if (iwant_pending_.erase(message.id) > 0)
    transport_.metrics().counter("pubsub.gossip_recovered").inc();
  mcache_windows_.front().push_back(message.id);
  mcache_[message.id] = message;

  const auto it = topics_.find(message.topic);
  if (it != topics_.end() && it->second.subscribed && it->second.deliver) {
    ++delivered_;
    transport_.metrics().counter("pubsub.deliver").inc();
    it->second.deliver(message);
  }
  forward_to_mesh(message, from);
}

void Pubsub::forward_to_mesh(const PubsubMessage& message,
                             sim::NodeId arrived_from) {
  const auto it = topics_.find(message.topic);
  if (it == topics_.end()) return;
  for (const sim::NodeId peer : it->second.mesh) {
    if (peer == arrived_from || peer == message.id.origin) continue;
    auto rpc = std::make_shared<GossipRpc>();
    rpc->publish.push_back(message);
    transport_.metrics().counter("pubsub.forwarded").inc();
    send_rpc(peer, std::move(rpc));
  }
}

void Pubsub::heartbeat() {
  if (!transport_.online()) return;  // crashed: the restart re-arms us
  transport_.metrics().counter("pubsub.heartbeat").inc();
  const sim::Time now = transport_.now();
  for (auto& [topic, state] : topics_) {
    if (state.subscribed) {
      maintain_mesh(topic, state);
      emit_gossip(topic, state);
    } else if (!state.fanout.empty() && state.fanout_expires <= now) {
      state.fanout.clear();
    }
  }
  shift_mcache();
}

void Pubsub::maintain_mesh(const Topic& topic, TopicState& state) {
  // Connection teardown (resets, churn, crashes) implies mesh drop.
  std::erase_if(state.mesh, [&](sim::NodeId peer) {
    if (transport_.connected(peer)) return false;
    transport_.metrics().instant("pubsub.mesh_drop", node_, topic, 0, peer);
    return true;
  });

  const auto degree = static_cast<std::size_t>(config_.degree);
  const auto degree_lo = static_cast<std::size_t>(config_.degree_lo);
  const auto degree_hi = static_cast<std::size_t>(config_.degree_hi);

  if (state.mesh.size() < degree_lo) {
    // GRAFT fresh peers up to the target degree D.
    std::vector<sim::NodeId> pool;
    for (const sim::NodeId peer : state.peers)
      if (std::find(state.mesh.begin(), state.mesh.end(), peer) ==
          state.mesh.end())
        pool.push_back(peer);
    for (const sim::NodeId peer :
         sample(std::move(pool), degree - state.mesh.size())) {
      ensure_connected(peer, [this, topic, peer](bool ok) {
        const auto it = topics_.find(topic);
        if (it == topics_.end() || !it->second.subscribed) return;
        TopicState& current = it->second;
        if (!ok) {
          // The peer is gone (crashed, churned out, removed): forget it
          // so mesh repair converges on live members.
          std::erase(current.peers, peer);
          std::erase(current.fanout, peer);
          return;
        }
        if (std::find(current.mesh.begin(), current.mesh.end(), peer) !=
            current.mesh.end())
          return;
        current.mesh.push_back(peer);
        transport_.metrics().counter("pubsub.graft_sent").inc();
        transport_.metrics().instant("pubsub.mesh_add", node_, topic, 0, peer);
        if (current.join_span != 0) {
          transport_.metrics().end_span(current.join_span, true);
          current.join_span = 0;
        }
        auto rpc = std::make_shared<GossipRpc>();
        rpc->graft.push_back({topic});
        // The graft doubles as a subscription announcement for peers
        // that learned about us only via px.
        rpc->subscriptions.push_back({topic, true});
        send_rpc(peer, std::move(rpc));
      });
    }
  } else if (state.mesh.size() > degree_hi) {
    // PRUNE down to D, handing each pruned peer a px sample to re-mesh.
    std::vector<sim::NodeId> victims =
        sample(state.mesh, state.mesh.size() - degree);
    for (const sim::NodeId victim : victims) {
      std::erase(state.mesh, victim);
      ControlPrune prune;
      prune.topic = topic;
      std::vector<sim::NodeId> px_pool;
      for (const sim::NodeId peer : state.peers)
        if (peer != victim) px_pool.push_back(peer);
      prune.px = sample(std::move(px_pool), kPrunePx);
      transport_.metrics().counter("pubsub.prune_sent").inc();
      transport_.metrics().instant("pubsub.mesh_drop", node_, topic, 0, victim);
      auto rpc = std::make_shared<GossipRpc>();
      rpc->prune.push_back(std::move(prune));
      send_rpc(victim, std::move(rpc));
    }
  }
}

void Pubsub::emit_gossip(const Topic& topic, TopicState& state) {
  // Advertise ids from the most recent kHistoryGossip windows to a
  // random sample of non-mesh topic peers.
  ControlIHave ihave;
  ihave.topic = topic;
  std::size_t windows = 0;
  for (const auto& window : mcache_windows_) {
    if (windows++ >= kHistoryGossip) break;
    for (const MessageId& id : window) {
      const auto it = mcache_.find(id);
      if (it != mcache_.end() && it->second.topic == topic)
        ihave.ids.push_back(id);
    }
  }
  if (ihave.ids.empty()) return;

  std::vector<sim::NodeId> pool;
  for (const sim::NodeId peer : state.peers)
    if (std::find(state.mesh.begin(), state.mesh.end(), peer) ==
        state.mesh.end())
      pool.push_back(peer);
  for (const sim::NodeId peer : sample(std::move(pool), kGossipDegree)) {
    auto rpc = std::make_shared<GossipRpc>();
    rpc->ihave.push_back(ihave);
    transport_.metrics().counter("pubsub.ihave_sent").inc();
    send_rpc(peer, std::move(rpc));
  }
}

void Pubsub::shift_mcache() {
  mcache_windows_.emplace_front();
  while (mcache_windows_.size() > kHistoryLength) {
    for (const MessageId& id : mcache_windows_.back()) mcache_.erase(id);
    mcache_windows_.pop_back();
  }
}

void Pubsub::mark_seen(const MessageId& id) {
  if (!seen_set_.insert(id).second) return;
  seen_order_.push_back(id);
  while (seen_order_.size() > kSeenCapacity) {
    seen_set_.erase(seen_order_.front());
    seen_order_.pop_front();
  }
}

std::vector<sim::NodeId> Pubsub::sample(std::vector<sim::NodeId> pool,
                                        std::size_t want) {
  if (pool.size() <= want) return pool;
  // Partial Fisher-Yates on the engine's private stream.
  for (std::size_t i = 0; i < want; ++i) {
    const auto j = static_cast<std::size_t>(rng_.uniform_int(
        static_cast<std::int64_t>(i), static_cast<std::int64_t>(pool.size()) - 1));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(want);
  return pool;
}

void Pubsub::handle_crash() {
  // Everything is soft state: subscriptions, meshes, caches and the
  // candidate set die with the process.
  for (auto& [topic, state] : topics_)
    if (state.join_span != 0) transport_.metrics().end_span(state.join_span, false);
  topics_.clear();
  candidates_.clear();
  seen_set_.clear();
  seen_order_.clear();
  mcache_windows_.clear();
  mcache_windows_.emplace_back();
  mcache_.clear();
  iwant_pending_.clear();
  heartbeat_timer_.cancel();
}

void Pubsub::handle_restart() {
  heartbeat_timer_.cancel();
  arm_heartbeat();
}

std::vector<sim::NodeId> Pubsub::mesh_peers(const Topic& topic) const {
  const auto it = topics_.find(topic);
  return it == topics_.end() ? std::vector<sim::NodeId>{} : it->second.mesh;
}

std::vector<sim::NodeId> Pubsub::topic_peers(const Topic& topic) const {
  const auto it = topics_.find(topic);
  return it == topics_.end() ? std::vector<sim::NodeId>{} : it->second.peers;
}

}  // namespace ipfs::pubsub
