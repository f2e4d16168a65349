// Connection manager, modelled on the go-libp2p watermark design: when a
// node holds more than `high_water` connections, the least valuable ones
// are closed until `low_water` remain. Long DHT walks open dozens of
// short-lived connections; trimming them is why the provider-record RPC
// batch re-dials peers (and occasionally hits the Figure 9c timeouts).
#pragma once

#include <unordered_set>

#include "transport/transport.h"

namespace ipfs::node {

struct ConnManagerConfig {
  std::size_t low_water = 32;
  std::size_t high_water = 96;
};

class ConnectionManager {
 public:
  ConnectionManager(transport::Transport& transport, ConnManagerConfig config);

  // Never trim these peers (bootstrap peers, active transfer partners).
  // Protections nest: a peer stays protected until every protect() has
  // been matched by an unprotect().
  void protect(sim::NodeId peer) { protected_.insert(peer); }
  void unprotect(sim::NodeId peer) {
    if (const auto it = protected_.find(peer); it != protected_.end())
      protected_.erase(it);
  }
  // Drops every protection (process crash: the set is soft state).
  void clear_protected() { protected_.clear(); }

  // Closes unprotected connections down to low_water if the node exceeds
  // high_water. Returns how many were closed.
  std::size_t trim();

  // Closes every unprotected connection (the experiment harness does this
  // between retrievals, Section 4.3).
  std::size_t disconnect_all();

  const ConnManagerConfig& config() const { return config_; }

 private:
  transport::Transport& transport_;
  ConnManagerConfig config_;
  std::unordered_multiset<sim::NodeId> protected_;
};

}  // namespace ipfs::node
