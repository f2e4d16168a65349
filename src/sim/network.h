// Message-level network fabric for the simulator.
//
// Models the parts of the real Internet the paper's measurements depend on:
//   - per-region one-way latencies with jitter (a global RTT matrix),
//   - bandwidth-limited transfers (publication is size-independent, content
//     fetch is not),
//   - dial + security/mux negotiation handshakes per transport, with the
//     transport-specific timeouts that produce the 5 s and 45 s spikes in
//     paper Figure 9c,
//   - NAT'ed (undialable) peers,
//   - connection state (Bitswap broadcasts to *connected* peers only).
//
// Node state is stored in dense structure-of-arrays vectors indexed by
// NodeId. A node is only ever up or down (set_online): ids are never
// removed or reused, so churn and crashes never grow the id space.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "metrics/metrics.h"
#include "sim/message_kind.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace ipfs::sim {

using NodeId = std::uint32_t;
constexpr NodeId kInvalidNode = 0xffffffffu;

enum class Transport { kTcp, kQuic, kWebSocket };

// Dial timeout observed by a peer trying to reach an address that never
// answers (paper Section 6.1: 5 s TCP/QUIC dial timeouts, 45 s WebSocket
// handshake).
Duration dial_timeout(Transport transport);

// Dials to a churned-out peer usually fail fast (the host answers with a
// TCP RST or an ICMP unreachable); only a minority hang until the
// transport timeout. NAT'ed peers always hang: their packets vanish.
constexpr double kFastFailProbability = 0.7;

// Round trips needed to establish a secured, multiplexed connection.
int handshake_round_trips(Transport transport);

struct NodeConfig {
  int region = 0;
  bool dialable = true;      // false models NAT'ed peers (DHT clients)
  Transport transport = Transport::kTcp;
  double upload_bytes_per_sec = 4.0 * 1024 * 1024;
  double download_bytes_per_sec = 12.0 * 1024 * 1024;
  // Probability that a dial to this (online, dialable) peer succeeds.
  // Below 1.0 models flaky reachability: overloaded hosts, half-broken
  // NAT setups, relay addresses. Failed dials hang until the transport
  // timeout — the mechanism behind the 5 s / 45 s spikes in Figure 9c.
  double dial_success_prob = 1.0;
  // Relay support for NAT'ed peers (DCUtR, the hole-punching upgrade the
  // paper notes as under test). kInvalidNode = no relay: dials to an
  // undialable peer simply time out. With a relay, dials reach the peer
  // through it (both legs' latency), then attempt a hole-punched direct
  // upgrade that succeeds with dcutr_success_prob.
  std::uint32_t relay = 0xffffffffu;  // NodeId of the relay, if any
  double dcutr_success_prob = 0.7;

  // Named-parameter setters: the preferred way to build configs at call
  // sites. Unlike positional aggregate initialization, adding a field
  // can never silently reorder an existing config.
  NodeConfig& with_region(int r) {
    region = r;
    return *this;
  }
  NodeConfig& with_dialable(bool d) {
    dialable = d;
    return *this;
  }
  NodeConfig& with_upload(double bytes_per_sec) {
    upload_bytes_per_sec = bytes_per_sec;
    return *this;
  }
  NodeConfig& with_download(double bytes_per_sec) {
    download_bytes_per_sec = bytes_per_sec;
    return *this;
  }
  NodeConfig& with_bandwidth(double up_bytes_per_sec,
                             double down_bytes_per_sec) {
    upload_bytes_per_sec = up_bytes_per_sec;
    download_bytes_per_sec = down_bytes_per_sec;
    return *this;
  }
};

// Base class for all protocol messages exchanged over the fabric.
class Message {
 public:
  virtual ~Message() = default;

  // Wire tag of the concrete type (sim/message_kind.h). Dispatch and the
  // socket codec switch on this; kUnknown marks test-local structs that
  // never cross a real wire.
  virtual MessageKind kind() const { return MessageKind::kUnknown; }
};

using MessagePtr = std::shared_ptr<const Message>;

enum class RpcStatus { kOk, kTimeout, kUnreachable, kReset };

using ResponseCallback = std::function<void(RpcStatus, MessagePtr)>;
// respond() may be invoked at most once, synchronously or later.
using RequestHandler = std::function<void(
    NodeId from, const MessagePtr& request,
    std::function<void(MessagePtr, std::size_t bytes)> respond)>;
using MessageHandler =
    std::function<void(NodeId from, const MessagePtr& message)>;
using DialCallback = std::function<void(bool ok, Duration elapsed)>;

// One-way latency model over a region matrix (milliseconds), with
// multiplicative jitter per sample. The matrix is stored as one
// contiguous row-major vector so a lookup is a multiply-add away —
// no per-row pointer chase on the per-message hot path.
class LatencyModel {
 public:
  LatencyModel(std::vector<std::vector<double>> one_way_ms,
               double jitter_low = 0.95, double jitter_high = 1.25);

  Duration sample(int region_a, int region_b, Rng& rng) const {
    const double base =
        flat_[static_cast<std::size_t>(region_a) *
                  static_cast<std::size_t>(regions_) +
              static_cast<std::size_t>(region_b)];
    const double jitter = rng.uniform(jitter_low_, jitter_high_);
    return milliseconds(base * jitter);
  }

  int regions() const { return regions_; }

 private:
  std::vector<double> flat_;  // row-major regions_ x regions_ matrix
  int regions_;
  double jitter_low_;
  double jitter_high_;
};

// Hook interface for deterministic fault injection (see sim/faults.h for
// the seeded implementation). The fabric consults the injector at every
// decision point but never touches its own rng stream on the injector's
// behalf, so runs without an injector draw exactly the same randomness as
// before one existed.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;

  // Message-level faults on established connections (datagrams and both
  // legs of request/response). A dropped request or response surfaces to
  // the requester as RpcStatus::kTimeout.
  virtual bool drop_message(NodeId from, NodeId to) = 0;
  virtual bool duplicate_message(NodeId from, NodeId to) = 0;
  // Extra delivery delay for this message; > 0 reorders it behind later
  // traffic on the same link.
  virtual Duration reorder_delay(NodeId from, NodeId to) = 0;
  // Forces a dial from->to to fail (hangs until the transport timeout,
  // like a half-broken NAT mapping).
  virtual bool fail_dial(NodeId from, NodeId to) = 0;
  // Multiplier (>= 1.0) applied to sampled one-way latency: per-link
  // latency spikes.
  virtual double latency_factor(NodeId a, NodeId b) = 0;
};

class Network {
 public:
  Network(Simulator& simulator, const LatencyModel& latency,
          std::uint64_t seed);

  // Adds an online node; ids count up from 0.
  NodeId add_node(const NodeConfig& config);

  // Size of the id space: every id below it names a node.
  std::size_t node_count() const { return configs_.size(); }

  const NodeConfig& config(NodeId id) const { return configs_[id]; }
  bool online(NodeId id) const { return online_[id] != 0; }

  // Toggles liveness. Going offline tears down all connections and mutes
  // any pending callbacks owned by the node.
  void set_online(NodeId id, bool online);
  void set_dialable(NodeId id, bool dialable);

  void set_request_handler(NodeId id, RequestHandler handler);
  void set_message_handler(NodeId id, MessageHandler handler);

  // Installs (or removes, with nullptr) the fault injector. Not owned.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  // The currently installed injector (nullptr when none). Lets a second
  // fault source (adversary::AttackPlan's partition) wrap whatever is
  // already installed instead of silently replacing it.
  FaultInjector* fault_injector() const { return injector_; }

  // Tears down the a<->b connection and fails every in-flight request
  // between the pair, in both directions, with RpcStatus::kReset. The
  // reset callbacks fire asynchronously (a reset is observed on the next
  // read, not instantaneously).
  void reset_connection(NodeId a, NodeId b);

  // Establishes a connection (dial + negotiate). Invokes cb exactly once:
  // immediately if already connected, after the handshake on success, or
  // after the transport's dial timeout on failure.
  void connect(NodeId from, NodeId to, DialCallback cb);
  void disconnect(NodeId from, NodeId to);
  bool connected(NodeId a, NodeId b) const;
  const std::vector<NodeId>& connections_of(NodeId id) const {
    return connections_[id];
  }

  // One-shot datagram over an established connection ("fire and forget").
  // Silently dropped if the connection is gone or the receiver is offline.
  void send(NodeId from, NodeId to, MessagePtr message, std::size_t bytes);

  // Request/response over an established connection. The callback fires
  // exactly once unless the requester goes offline first.
  void request(NodeId from, NodeId to, MessagePtr request,
               std::size_t request_bytes, Duration timeout,
               ResponseCallback cb);

  // Sampled one-way latency between two nodes (for tests / diagnostics).
  Duration sample_latency(NodeId a, NodeId b);

  // Transfer time of `bytes` between the pair, excluding latency and
  // queueing.
  Duration transfer_time(NodeId from, NodeId to, std::size_t bytes) const;

  // Transfer delay including sender-uplink queueing: concurrent
  // transfers from one node serialize on its uplink (so fetching many
  // blocks from a single provider is bottlenecked by that provider,
  // while multi-path sessions aggregate bandwidth across providers).
  Duration queued_transfer_delay(NodeId from, NodeId to, std::size_t bytes);

  Simulator& simulator() { return simulator_; }
  Rng& rng() { return rng_; }

  // Scheduler forwards, so drivers holding only the fabric can run and
  // schedule the simulation.
  Time now() const { return simulator_.now(); }
  std::uint64_t run() { return simulator_.run(); }
  std::uint64_t run_until(Time deadline) {
    return simulator_.run_until(deadline);
  }
  std::size_t foreground_pending() const {
    return simulator_.foreground_pending();
  }
  std::size_t pending_events() const { return simulator_.pending_events(); }
  template <typename F>
  Timer schedule_at(Time when, F&& fn) {
    return simulator_.schedule_at(when, std::forward<F>(fn));
  }
  template <typename F>
  Timer schedule_after(Duration delay, F&& fn) {
    return simulator_.schedule_after(delay, std::forward<F>(fn));
  }
  template <typename F>
  Timer schedule_daemon_at(Time when, F&& fn) {
    return simulator_.schedule_daemon_at(when, std::forward<F>(fn));
  }
  template <typename F>
  Timer schedule_daemon_after(Duration delay, F&& fn) {
    return simulator_.schedule_daemon_after(delay, std::forward<F>(fn));
  }

  // Per-simulation observability substrate. The fabric instruments its own
  // dials/RPCs here, and every component holding a Network reference uses
  // the same registry for its phase spans and counters.
  metrics::Registry& metrics() { return metrics_; }
  const metrics::Registry& metrics() const { return metrics_; }

  // In-flight request/response exchanges. Zero once the simulator has
  // drained (every request either answered, timed out, or reset) — the
  // fuzz harness checks this to detect leaked pending entries.
  std::size_t pending_request_count() const { return pending_.size(); }

 private:
  struct PendingRequest {
    NodeId from;
    NodeId to;
    std::uint64_t from_epoch;
    ResponseCallback cb;
    Timer timeout_timer;
    metrics::SpanId span = 0;  // net.rpc span, ended on every outcome
  };

  bool callback_alive(NodeId id, std::uint64_t epoch) const {
    return online_[id] != 0 && epochs_[id] == epoch;
  }

  void link(NodeId a, NodeId b);
  void unlink(NodeId a, NodeId b);

  Duration one_way(NodeId a, NodeId b);

  // Lazily cached counter handle: first use creates the map entry (so
  // exports look exactly as before), later uses skip the by-name lookup
  // that used to dominate the per-message metrics cost.
  metrics::Counter& hot_counter(metrics::Counter*& slot, const char* name) {
    if (slot == nullptr) slot = &metrics_.counter(name);
    return *slot;
  }

  Simulator& simulator_;
  const LatencyModel& latency_;
  Rng rng_;
  metrics::Registry metrics_;
  FaultInjector* injector_ = nullptr;

  // Hot-path counter handles (see hot_counter()).
  metrics::Counter* c_messages_sent_ = nullptr;
  metrics::Counter* c_bytes_sent_ = nullptr;
  metrics::Counter* c_tx_messages_ = nullptr;
  metrics::Counter* c_tx_bytes_ = nullptr;
  metrics::Counter* c_rx_messages_ = nullptr;
  metrics::Counter* c_rx_bytes_ = nullptr;
  metrics::Counter* c_rpcs_sent_ = nullptr;
  metrics::Counter* c_rpc_timeouts_ = nullptr;
  metrics::Counter* c_rpc_resets_ = nullptr;
  metrics::Counter* c_rpcs_unreachable_ = nullptr;
  metrics::Counter* c_dials_attempted_ = nullptr;
  metrics::Counter* c_dials_failed_ = nullptr;

  // Per-node state, structure-of-arrays, indexed by NodeId. Epochs
  // increment when a node goes offline; callbacks captured under an
  // older epoch stay muted after the node comes back.
  std::vector<NodeConfig> configs_;
  std::vector<std::uint8_t> online_;
  std::vector<std::uint64_t> epochs_;
  std::vector<RequestHandler> request_handlers_;
  std::vector<MessageHandler> message_handlers_;
  std::vector<std::vector<NodeId>> connections_;  // insertion-ordered
  std::vector<Time> uplink_free_at_;  // per-node uplink availability

  std::unordered_map<std::uint64_t, PendingRequest> pending_;
  std::uint64_t next_request_id_ = 1;
};

}  // namespace ipfs::sim
