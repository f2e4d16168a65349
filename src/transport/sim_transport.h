// Simulator backend for the transport interface: a view of one fabric
// node. Pure delegation — no extra scheduled events, no rng draws, no
// trace records beyond what sim::Network itself emits — so traces stay
// byte-identical to the pre-transport code paths.
#pragma once

#include "transport/transport.h"

namespace ipfs::transport {

class SimTransport final : public Transport {
 public:
  // Wraps an existing fabric node.
  SimTransport(sim::Network& network, sim::NodeId node)
      : network_(network), node_(node) {}
  // Adds a fresh node to the fabric and wraps it.
  SimTransport(sim::Network& network, const sim::NodeConfig& config)
      : network_(network), node_(network.add_node(config)) {}

  PeerAddr local() const override { return node_; }
  bool online() const override { return network_.online(node_); }

  sim::Time now() const override { return network_.now(); }
  Timer schedule_after(sim::Duration delay, std::function<void()> fn) override {
    return network_.schedule_after(delay, std::move(fn));
  }
  Timer schedule_daemon_after(sim::Duration delay,
                              std::function<void()> fn) override {
    return network_.schedule_daemon_after(delay, std::move(fn));
  }
  Timer schedule_daemon_at(sim::Time when, std::function<void()> fn) override {
    return network_.schedule_daemon_at(when, std::move(fn));
  }

  void connect(PeerAddr peer, sim::DialCallback cb) override {
    network_.connect(node_, peer, std::move(cb));
  }
  void disconnect(PeerAddr peer) override { network_.disconnect(node_, peer); }
  bool connected(PeerAddr peer) const override {
    return network_.connected(node_, peer);
  }
  std::vector<PeerAddr> connections() const override {
    return network_.connections_of(node_);
  }
  bool peer_dialable(PeerAddr peer) const override {
    return network_.config(peer).dialable;
  }
  int handshake_round_trips(PeerAddr peer) const override {
    return sim::handshake_round_trips(network_.config(peer).transport);
  }

  void send(PeerAddr to, sim::MessagePtr message, std::size_t bytes) override {
    network_.send(node_, to, std::move(message), bytes);
  }
  void request(PeerAddr to, sim::MessagePtr request, std::size_t request_bytes,
               sim::Duration timeout, sim::ResponseCallback cb) override {
    network_.request(node_, to, std::move(request), request_bytes, timeout,
                     std::move(cb));
  }
  void set_request_handler(sim::RequestHandler handler) override {
    network_.set_request_handler(node_, std::move(handler));
  }
  void set_message_handler(sim::MessageHandler handler) override {
    network_.set_message_handler(node_, std::move(handler));
  }

  metrics::Registry& metrics() override { return network_.metrics(); }

 private:
  sim::Network& network_;
  sim::NodeId node_;
};

}  // namespace ipfs::transport
