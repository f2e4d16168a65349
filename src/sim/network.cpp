#include "sim/network.h"

#include <algorithm>
#include <cassert>

namespace ipfs::sim {

Duration dial_timeout(Transport transport) {
  switch (transport) {
    case Transport::kTcp:
    case Transport::kQuic:
      return seconds(5);  // transport-level dial timeout (paper Section 6.1)
    case Transport::kWebSocket:
      return seconds(45);  // websocket handshake timeout (paper Section 6.1)
  }
  return seconds(5);
}

int handshake_round_trips(Transport transport) {
  switch (transport) {
    case Transport::kTcp:
      return 2;  // TCP + Noise/TLS1.3; muxer piggybacks on the last flight
    case Transport::kQuic:
      return 1;  // combined transport/crypto handshake
    case Transport::kWebSocket:
      return 3;  // TCP + TLS + HTTP upgrade
  }
  return 2;
}

LatencyModel::LatencyModel(std::vector<std::vector<double>> one_way_ms,
                           double jitter_low, double jitter_high)
    : regions_(static_cast<int>(one_way_ms.size())),
      jitter_low_(jitter_low),
      jitter_high_(jitter_high) {
  assert(!one_way_ms.empty());
  flat_.reserve(static_cast<std::size_t>(regions_) *
                static_cast<std::size_t>(regions_));
  for (const auto& row : one_way_ms) {
    assert(row.size() == one_way_ms.size());
    flat_.insert(flat_.end(), row.begin(), row.end());
  }
}

Network::Network(Simulator& simulator, const LatencyModel& latency,
                 std::uint64_t seed)
    : simulator_(simulator),
      latency_(latency),
      rng_(Rng(seed).fork("network")),
      metrics_([this] { return now(); }) {}

NodeId Network::add_node(const NodeConfig& config) {
  assert(config.region >= 0 && config.region < latency_.regions());
  const auto id = static_cast<NodeId>(configs_.size());
  configs_.push_back(config);
  online_.push_back(1);
  epochs_.push_back(0);
  request_handlers_.emplace_back();
  message_handlers_.emplace_back();
  connections_.emplace_back();
  uplink_free_at_.push_back(0);
  return id;
}

void Network::set_online(NodeId id, bool online) {
  if ((online_[id] != 0) == online) return;
  online_[id] = online ? 1 : 0;
  if (!online) {
    ++epochs_[id];  // mute callbacks the node still has in flight
    // Tear down connections from both sides.
    for (const NodeId peer : connections_[id]) {
      std::erase(connections_[peer], id);
    }
    connections_[id].clear();
  }
}

void Network::set_dialable(NodeId id, bool dialable) {
  configs_[id].dialable = dialable;
}

void Network::set_request_handler(NodeId id, RequestHandler handler) {
  request_handlers_[id] = std::move(handler);
}

void Network::set_message_handler(NodeId id, MessageHandler handler) {
  message_handlers_[id] = std::move(handler);
}

Duration Network::one_way(NodeId a, NodeId b) {
  Duration sampled =
      latency_.sample(configs_[a].region, configs_[b].region, rng_);
  if (injector_ != nullptr) {
    const double factor = injector_->latency_factor(a, b);
    if (factor != 1.0)
      sampled = static_cast<Duration>(static_cast<double>(sampled) * factor);
  }
  return sampled;
}

Duration Network::sample_latency(NodeId a, NodeId b) { return one_way(a, b); }

Duration Network::transfer_time(NodeId from, NodeId to,
                                std::size_t bytes) const {
  const double rate = std::min(configs_[from].upload_bytes_per_sec,
                               configs_[to].download_bytes_per_sec);
  return seconds(static_cast<double>(bytes) / rate);
}

Duration Network::queued_transfer_delay(NodeId from, NodeId to,
                                        std::size_t bytes) {
  const Duration service = transfer_time(from, to, bytes);
  const Time start = std::max(now(), uplink_free_at_[from]);
  uplink_free_at_[from] = start + service;
  return (start + service) - now();
}

void Network::link(NodeId a, NodeId b) {
  connections_[a].push_back(b);
  connections_[b].push_back(a);
}

void Network::unlink(NodeId a, NodeId b) {
  std::erase(connections_[a], b);
  std::erase(connections_[b], a);
}

void Network::connect(NodeId from, NodeId to, DialCallback cb) {
  assert(from != to);
  hot_counter(c_dials_attempted_, "net.dials_attempted").inc();
  if (online_[from] == 0) return;  // an offline node observes nothing

  if (connected(from, to)) {
    // Reusing an existing connection: a zero-length dial span keeps the
    // trace complete without pretending a handshake happened.
    metrics_.end_span(metrics_.begin_span("net.dial", from, {}, 0, to));
    cb(true, 0);
    return;
  }

  const metrics::SpanId dial_span =
      metrics_.begin_span("net.dial", from, {}, 0, to);

  const NodeConfig& dst = configs_[to];
  const Transport transport = dst.transport;
  const std::uint64_t epoch = epochs_[from];
  const Time start = now();

  // NAT'ed peers with a relay are reachable via the relay (DCUtR): the
  // dial traverses both legs, then tries to hole-punch a direct path.
  if (!dst.dialable && online_[to] != 0 && dst.relay != kInvalidNode &&
      online_[dst.relay] != 0) {
    const NodeId relay = dst.relay;
    const Duration via_relay = (one_way(from, relay) + one_way(relay, to)) *
                               2 * handshake_round_trips(transport);
    const bool upgraded = rng_.chance(dst.dcutr_success_prob);
    // A failed hole punch still yields a (relayed) connection; only the
    // latency differs. Model both as a connection after the setup time,
    // with an extra round of coordination when the punch succeeds.
    const Duration setup = via_relay + (upgraded ? one_way(from, to) * 2 : 0);
    simulator_.post(setup, [this, from, to, epoch, cb, start, dial_span] {
      // The dial outcome is real telemetry even when the requester has
      // since churned out, so the span ends before the liveness check.
      const bool ok = online_[to] != 0;
      metrics_.end_span(dial_span, ok);
      if (!callback_alive(from, epoch)) return;
      if (!ok) {
        hot_counter(c_dials_failed_, "net.dials_failed").inc();
        cb(false, now() - start);
        return;
      }
      link(from, to);
      cb(true, now() - start);
    });
    return;
  }

  // Injected dial failures short-circuit before the fabric's own flaky-
  // reachability draw so a no-injector run consumes the same rng stream.
  if (online_[to] == 0 || !dst.dialable ||
      (injector_ != nullptr && injector_->fail_dial(from, to)) ||
      !rng_.chance(dst.dial_success_prob)) {
    hot_counter(c_dials_failed_, "net.dials_failed").inc();
    // Offline-but-dialable hosts usually refuse quickly (RST / ICMP);
    // NAT'ed and flaky targets hang until the transport gives up.
    Duration fail_after =
        dial_timeout(transport) +
        milliseconds(rng_.uniform(20, 150));  // scheduler/teardown slack
    if (online_[to] == 0 && dst.dialable &&
        rng_.chance(kFastFailProbability)) {
      fail_after = one_way(from, to) * 2;  // one round trip to the RST
    }
    simulator_.post(fail_after, [this, from, epoch, cb, start, dial_span] {
      metrics_.end_span(dial_span, false);
      if (!callback_alive(from, epoch)) return;
      cb(false, now() - start);
    });
    return;
  }

  const Duration rtt = one_way(from, to) * 2;
  const Duration handshake = rtt * handshake_round_trips(transport);
  simulator_.post(handshake, [this, from, to, epoch, cb, start, dial_span] {
    const bool ok = online_[to] != 0;
    metrics_.end_span(dial_span, ok);
    if (!callback_alive(from, epoch)) return;
    if (!ok) {
      // Peer churned out mid-handshake; surface as a (slow) failure.
      hot_counter(c_dials_failed_, "net.dials_failed").inc();
      cb(false, now() - start);
      return;
    }
    link(from, to);
    cb(true, now() - start);
  });
}

void Network::disconnect(NodeId from, NodeId to) { unlink(from, to); }

bool Network::connected(NodeId a, NodeId b) const {
  const auto& peers = connections_[a];
  return std::find(peers.begin(), peers.end(), b) != peers.end();
}

void Network::send(NodeId from, NodeId to, MessagePtr message,
                   std::size_t bytes) {
  if (online_[from] == 0 || !connected(from, to)) return;
  // Bytes hit the wire even when the injector then loses them in transit.
  hot_counter(c_messages_sent_, "net.messages_sent").inc();
  hot_counter(c_bytes_sent_, "net.bytes_sent").inc(bytes);
  hot_counter(c_tx_messages_, "transport.tx.messages").inc();
  hot_counter(c_tx_bytes_, "transport.tx.bytes").inc(bytes);
  if (injector_ != nullptr && injector_->drop_message(from, to)) return;
  Duration delay = one_way(from, to) + queued_transfer_delay(from, to, bytes);
  bool duplicate = false;
  if (injector_ != nullptr) {
    delay += injector_->reorder_delay(from, to);
    duplicate = injector_->duplicate_message(from, to);
  }
  auto deliver = [this, from, to, bytes, message = std::move(message)] {
    if (online_[to] == 0) return;
    hot_counter(c_rx_messages_, "transport.rx.messages").inc();
    hot_counter(c_rx_bytes_, "transport.rx.bytes").inc(bytes);
    if (message_handlers_[to]) message_handlers_[to](from, message);
  };
  if (duplicate) simulator_.post(delay + milliseconds(1), deliver);
  simulator_.post(delay, std::move(deliver));
}

void Network::request(NodeId from, NodeId to, MessagePtr request,
                      std::size_t request_bytes, Duration timeout,
                      ResponseCallback cb) {
  if (online_[from] == 0) return;
  if (!connected(from, to)) {
    hot_counter(c_rpcs_sent_, "net.rpcs_sent").inc();
    hot_counter(c_rpcs_unreachable_, "net.rpcs_unreachable").inc();
    metrics_.end_span(metrics_.begin_span("net.rpc", from, {}, 0, to), false);
    cb(RpcStatus::kUnreachable, nullptr);
    return;
  }

  hot_counter(c_rpcs_sent_, "net.rpcs_sent").inc();
  hot_counter(c_bytes_sent_, "net.bytes_sent").inc(request_bytes);
  hot_counter(c_tx_messages_, "transport.tx.messages").inc();
  hot_counter(c_tx_bytes_, "transport.tx.bytes").inc(request_bytes);
  const std::uint64_t request_id = next_request_id_++;
  PendingRequest pending;
  pending.from = from;
  pending.to = to;
  pending.from_epoch = epochs_[from];
  pending.cb = std::move(cb);
  pending.span = metrics_.begin_span("net.rpc", from, {}, 0, to);
  pending.timeout_timer =
      simulator_.schedule_after(timeout, [this, request_id] {
        const auto it = pending_.find(request_id);
        if (it == pending_.end()) return;
        PendingRequest entry = std::move(it->second);
        pending_.erase(it);
        hot_counter(c_rpc_timeouts_, "net.rpc_timeouts").inc();
        metrics_.end_span(entry.span, false);
        if (!callback_alive(entry.from, entry.from_epoch)) return;
        entry.cb(RpcStatus::kTimeout, nullptr);
      });
  pending_.emplace(request_id, std::move(pending));

  // A dropped request leg still leaves the pending entry armed: the
  // requester cannot tell a lost request from a slow peer, so the normal
  // timeout fires.
  if (injector_ != nullptr && injector_->drop_message(from, to)) return;

  Duration delay =
      one_way(from, to) + queued_transfer_delay(from, to, request_bytes);
  bool duplicate = false;
  if (injector_ != nullptr) {
    delay += injector_->reorder_delay(from, to);
    duplicate = injector_->duplicate_message(from, to);
  }
  auto deliver = [this, from, to, request_id, request_bytes,
                  request = std::move(request)] {
    // Offline peers, and peers without a request handler, swallow the
    // request; the timeout fires.
    if (online_[to] == 0 || !request_handlers_[to]) return;
    hot_counter(c_rx_messages_, "transport.rx.messages").inc();
    hot_counter(c_rx_bytes_, "transport.rx.bytes").inc(request_bytes);
    auto respond = [this, to, from, request_id](MessagePtr response,
                                                std::size_t bytes) {
      // Response travels back if the responder is still online.
      if (online_[to] == 0) return;
      hot_counter(c_bytes_sent_, "net.bytes_sent").inc(bytes);
      hot_counter(c_tx_messages_, "transport.tx.messages").inc();
      hot_counter(c_tx_bytes_, "transport.tx.bytes").inc(bytes);
      if (injector_ != nullptr && injector_->drop_message(to, from)) return;
      Duration back =
          one_way(to, from) + queued_transfer_delay(to, from, bytes);
      if (injector_ != nullptr) back += injector_->reorder_delay(to, from);
      simulator_.post(back, [this, request_id, bytes,
                             response = std::move(response)] {
        const auto it = pending_.find(request_id);
        if (it == pending_.end()) return;  // already timed out
        hot_counter(c_rx_messages_, "transport.rx.messages").inc();
        hot_counter(c_rx_bytes_, "transport.rx.bytes").inc(bytes);
        PendingRequest entry = std::move(it->second);
        pending_.erase(it);
        entry.timeout_timer.cancel();
        metrics_.end_span(entry.span, true);
        if (!callback_alive(entry.from, entry.from_epoch)) return;
        entry.cb(RpcStatus::kOk, response);
      });
    };
    request_handlers_[to](from, request, std::move(respond));
  };
  // A duplicated request reaches the handler twice; the second respond()
  // finds the pending entry consumed and is ignored, but the responder's
  // side effects (ledger counts, record stores) happen twice — exactly
  // the at-least-once delivery real retransmissions produce.
  if (duplicate) simulator_.post(delay + milliseconds(1), deliver);
  simulator_.post(delay, std::move(deliver));
}

void Network::reset_connection(NodeId a, NodeId b) {
  disconnect(a, b);
  // Collect in deterministic order: the pending_ map's iteration order is
  // not part of the simulation contract.
  std::vector<std::uint64_t> hit;
  for (const auto& [id, entry] : pending_) {
    if ((entry.from == a && entry.to == b) ||
        (entry.from == b && entry.to == a))
      hit.push_back(id);
  }
  std::sort(hit.begin(), hit.end());
  for (const std::uint64_t id : hit) {
    const auto it = pending_.find(id);
    PendingRequest entry = std::move(it->second);
    pending_.erase(it);
    entry.timeout_timer.cancel();
    hot_counter(c_rpc_resets_, "net.rpc_resets").inc();
    metrics_.end_span(entry.span, false);
    simulator_.post(0, [this, entry]() {
      if (!callback_alive(entry.from, entry.from_epoch)) return;
      entry.cb(RpcStatus::kReset, nullptr);
    });
  }
}

}  // namespace ipfs::sim
