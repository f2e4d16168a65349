// GossipSub-style pubsub engine on the discrete-event simulator.
//
// The paper (Section 2.6) notes that IPNS resolution over the DHT is slow
// enough that go-ipfs ships an experimental pubsub fast path; this module
// supplies the mesh overlay that fast path rides on. The model follows
// libp2p gossipsub v1.1's structure:
//
//   - per-topic *mesh*: a bidirectional overlay of grafted peers kept
//     between D_lo and D_hi members (target D) by a heartbeat timer;
//     full messages are eagerly pushed along mesh edges,
//   - GRAFT/PRUNE control messages grow and shrink the mesh; PRUNE
//     carries peer-exchange (px) candidates so pruned peers can re-mesh,
//   - IHAVE/IWANT lazy gossip: at each heartbeat, recent message ids from
//     a bounded message cache are advertised to non-mesh topic peers,
//     which request anything they missed,
//   - *fanout* for publishers not subscribed to the topic: a cached peer
//     set used for publishing only, expiring after kFanoutTtl (60 s),
//   - message-id dedup via a bounded seen-cache, so each subscriber
//     delivers any message at most once.
//
// Peer discovery is ambient: the engine is told about candidate peers
// (bootstrap seeds, scenario wiring, px) and learns topic interest from
// subscription announcements on the resulting connections. All traffic
// goes through transport::Transport datagrams, so under the simulator
// backend fault injection (drops, resets, churn) exercises mesh repair
// exactly like any other protocol.
//
// Divergences from the libp2p spec are documented in docs/PUBSUB.md.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "metrics/metrics.h"
#include "sim/rng.h"
#include "transport/transport.h"

namespace ipfs::pubsub {

using Topic = std::string;

// Gossipsub identifies messages by (origin, per-origin seqno), so dedup
// and IHAVE advertisements cost 12 bytes per id instead of a hash.
struct MessageId {
  sim::NodeId origin = sim::kInvalidNode;
  std::uint64_t seqno = 0;

  bool operator==(const MessageId&) const = default;
  auto operator<=>(const MessageId&) const = default;
};

struct PubsubMessage {
  MessageId id;
  Topic topic;
  std::vector<std::uint8_t> data;
};

// --- Wire format -----------------------------------------------------------
// One RPC bundles subscription changes, full messages and control frames,
// mirroring the gossipsub protobuf's RPC envelope.

struct SubOpts {
  Topic topic;
  bool subscribe = true;
};

struct ControlIHave {
  Topic topic;
  std::vector<MessageId> ids;
};

struct ControlIWant {
  std::vector<MessageId> ids;
};

struct ControlGraft {
  Topic topic;
};

struct ControlPrune {
  Topic topic;
  std::vector<sim::NodeId> px;  // peer exchange: other topic members
};

struct GossipRpc : sim::Message {
  std::vector<SubOpts> subscriptions;
  // Marks a subscription announce sent in reply to another announce.
  // libp2p peers exchange subscriptions when a connection opens (both
  // directions); datagrams have no connection-open hook, so the receiver
  // of a plain announce always answers with its own interest, and this
  // flag keeps the exchange to one round trip. Without the reply, a
  // crash-restarted node re-announcing to peers that still remember it
  // would never re-learn who is subscribed.
  bool announce_reply = false;
  std::vector<PubsubMessage> publish;
  std::vector<ControlIHave> ihave;
  std::vector<ControlIWant> iwant;
  std::vector<ControlGraft> graft;
  std::vector<ControlPrune> prune;

  bool empty() const {
    return subscriptions.empty() && publish.empty() && ihave.empty() &&
           iwant.empty() && graft.empty() && prune.empty();
  }

  sim::MessageKind kind() const override {
    return sim::MessageKind::kGossipRpc;
  }

  // Approximate serialized size, used for bandwidth modelling.
  std::size_t wire_bytes() const;
};

// --- Engine ------------------------------------------------------------------

struct PubsubConfig {
  // Mesh degree bounds (libp2p gossipsub defaults).
  int degree = 6;      // D: target mesh degree
  int degree_lo = 4;   // D_lo: graft below this
  int degree_hi = 12;  // D_hi: prune above this

  sim::Duration heartbeat_interval = sim::seconds(1);

  // Seed for the engine's private rng stream (mesh/gossip peer sampling).
  // The engine never draws from the network fabric's rng, so enabling
  // pubsub leaves every pre-existing seeded stream bit-identical.
  std::uint64_t seed = 0;

  PubsubConfig& with_degree(int d, int lo, int hi) {
    degree = d;
    degree_lo = lo;
    degree_hi = hi;
    return *this;
  }
  PubsubConfig& with_heartbeat(sim::Duration interval) {
    heartbeat_interval = interval;
    return *this;
  }
};

class Pubsub {
 public:
  using DeliverFn = std::function<void(const PubsubMessage&)>;

  // `transport` is the node's endpoint; it must outlive the engine.
  explicit Pubsub(transport::Transport& transport, PubsubConfig config = {});
  ~Pubsub();

  Pubsub(const Pubsub&) = delete;
  Pubsub& operator=(const Pubsub&) = delete;

  // Joins `topic`: announces the subscription to every known candidate
  // peer; the next heartbeats graft a mesh. `deliver` fires at most once
  // per message id.
  void subscribe(const Topic& topic, DeliverFn deliver);

  // Leaves `topic`: PRUNEs the mesh and announces the unsubscription.
  void unsubscribe(const Topic& topic);

  bool subscribed(const Topic& topic) const;

  // Publishes to the mesh (when subscribed) or the fanout set (when not).
  // The local subscriber, if any, delivers immediately.
  MessageId publish(const Topic& topic, std::vector<std::uint8_t> data);

  // Ambient peer discovery: makes `peer` a candidate for meshes and
  // gossip, announcing any current subscriptions to it.
  void add_candidate_peer(sim::NodeId peer);

  // Datagram dispatch; returns false when `message` is not a GossipRpc
  // (so a protocol multiplexer can try other handlers).
  bool handle_message(sim::NodeId from, const sim::MessagePtr& message);

  // --- Crash/restart (sim/faults.h) ---------------------------------------
  // A crash drops all soft state: subscriptions, meshes, caches and the
  // candidate set (the address book analogue). The application re-adds
  // candidates and re-subscribes after restart, mirroring how a real
  // daemon rebuilds pubsub state from its topic list on boot.
  void handle_crash();
  void handle_restart();

  // --- Introspection --------------------------------------------------------
  std::vector<sim::NodeId> mesh_peers(const Topic& topic) const;
  std::vector<sim::NodeId> topic_peers(const Topic& topic) const;
  const PubsubConfig& config() const { return config_; }
  sim::NodeId node() const { return node_; }
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t duplicates_suppressed() const { return duplicates_; }

 private:
  struct TopicState {
    bool subscribed = false;
    DeliverFn deliver;
    // Remote peers known to be subscribed (announcements + px),
    // insertion-ordered for deterministic sampling.
    std::vector<sim::NodeId> peers;
    std::vector<sim::NodeId> mesh;    // grafted subset of `peers`
    std::vector<sim::NodeId> fanout;  // publish targets when unsubscribed
    sim::Time fanout_expires = 0;
    metrics::SpanId join_span = 0;  // pubsub.join: subscribe -> mesh formed
  };

  void accept_message(sim::NodeId from, const PubsubMessage& message);
  void forward_to_mesh(const PubsubMessage& message, sim::NodeId arrived_from);
  void publish_via_fanout(TopicState& state, const Topic& topic,
                          const PubsubMessage& message);
  void heartbeat();
  void maintain_mesh(const Topic& topic, TopicState& state);
  void emit_gossip(const Topic& topic, TopicState& state);
  void shift_mcache();
  void mark_seen(const MessageId& id);
  bool seen(const MessageId& id) const { return seen_set_.contains(id); }
  void remember_candidate(sim::NodeId peer);
  void announce_subscriptions(sim::NodeId peer, std::vector<SubOpts> subs,
                              bool reply = false);
  void send_rpc(sim::NodeId to, std::shared_ptr<GossipRpc> rpc);
  void ensure_connected(sim::NodeId peer, std::function<void(bool)> then);
  // Removes up to `want` members chosen uniformly from `pool` (partial
  // Fisher-Yates on the engine's private rng).
  std::vector<sim::NodeId> sample(std::vector<sim::NodeId> pool,
                                  std::size_t want);
  void arm_heartbeat();

  transport::Transport& transport_;
  sim::NodeId node_;
  PubsubConfig config_;
  sim::Rng rng_;
  transport::Timer heartbeat_timer_;
  sim::Duration heartbeat_phase_ = 0;  // deterministic per-node stagger

  std::map<Topic, TopicState> topics_;
  std::vector<sim::NodeId> candidates_;

  // Dedup cache: FIFO-evicted once kSeenCapacity ids are tracked.
  std::set<MessageId> seen_set_;
  std::deque<MessageId> seen_order_;

  // Message cache (mcache): history windows of ids plus the full payloads
  // for answering IWANT. Window 0 is the current heartbeat.
  std::deque<std::vector<MessageId>> mcache_windows_;
  std::map<MessageId, PubsubMessage> mcache_;

  // Ids requested via IWANT and not yet delivered (for the
  // gossip-recovery counter).
  std::set<MessageId> iwant_pending_;

  std::uint64_t next_seqno_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t duplicates_ = 0;
};

}  // namespace ipfs::pubsub
