// Network indexer: a delegated content-routing node (paper Section 6.2
// discussion; the production network's cid.contact, whose rise — and
// centralization trade-off — is documented in "The Cloud Strikes Back",
// Balduf et al.).
//
// Providers push advertisements on provide/reprovide ("fire and
// forget", like the DHT's ADD_PROVIDER); the indexer ingests them with a
// configurable pipeline lag before they become visible to queries, and
// answers provider lookups in a single RTT from an in-memory index. The
// index is soft state: a crash wipes it, and durability comes from the
// 12 h re-advertisement stream (DhtNode's republish timer re-pushes to
// indexers), mirroring how IPNI indexers re-sync advertisement chains.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "dht/key.h"
#include "dht/messages.h"
#include "indexer/messages.h"
#include "transport/transport.h"

namespace ipfs::indexer {

struct IndexerConfig {
  // Indexers are well-provisioned, dialable infrastructure nodes; World
  // and Scenario add a simulated indexer's node with this config.
  sim::NodeConfig net = sim::NodeConfig{}.with_bandwidth(100.0 * 1024 * 1024,
                                                         100.0 * 1024 * 1024);
  // Delay between an advertisement arriving and its records becoming
  // visible to queries: the ingest/processing pipeline of a real indexer
  // (advertisement chains are fetched and indexed in batches).
  sim::Duration ingest_lag = sim::seconds(30);
  // Visibility lifetime of an ingested record; refreshed whenever the
  // same provider re-advertises the same key.
  sim::Duration provider_ttl = sim::hours(24);

  IndexerConfig& with_ingest_lag(sim::Duration lag) {
    ingest_lag = lag;
    return *this;
  }
  IndexerConfig& with_provider_ttl(sim::Duration ttl) {
    provider_ttl = ttl;
    return *this;
  }
};

class Indexer {
 public:
  // Serves over `transport`, the node's endpoint, and installs its
  // handlers there; the endpoint must outlive the indexer.
  Indexer(transport::Transport& transport, IndexerConfig config);
  ~Indexer();

  Indexer(const Indexer&) = delete;
  Indexer& operator=(const Indexer&) = delete;

  sim::NodeId node() const { return node_; }
  transport::Transport& transport() { return transport_; }
  const IndexerConfig& config() const { return config_; }

  // --- Crash/restart (sim/faults.h conventions) ---------------------------
  //
  // A crash wipes the index and the ingest queue (soft state) and stops
  // the ingest timer. Call after Network::set_online(node, false);
  // records reappear as providers re-advertise (the 12 h republish
  // stream). handle_restart() is the post-set_online(true) hook.
  void handle_crash();
  void handle_restart();

  // --- Introspection ------------------------------------------------------

  // Records for `key` currently visible to queries (expired ones pruned).
  std::size_t visible_provider_count(const dht::Key& key) const;
  std::size_t pending_count() const { return pending_.size(); }
  std::uint64_t advertisements_received() const {
    return advertisements_received_;
  }
  std::uint64_t queries_served() const { return queries_served_; }

 private:
  struct PendingAd {
    dht::Key key;
    dht::ProviderRecord record;
    sim::Time visible_at = 0;
  };
  struct VisibleRecord {
    dht::ProviderRecord record;
    sim::Time expires_at = 0;
  };

  void on_advertise(const AdvertiseMessage& ad);
  void answer_query(const QueryRequest& query,
                    const std::function<void(sim::MessagePtr, std::size_t)>&
                        respond);
  // Re-arms the ingest timer for the front of the queue (daemon: an idle
  // indexer must not keep Simulator::run() alive).
  void arm_ingest_timer();
  void ingest_due();

  transport::Transport& transport_;
  IndexerConfig config_;
  sim::NodeId node_ = sim::kInvalidNode;
  // Arrival-ordered; visible_at is nondecreasing (constant ingest lag),
  // so the front is always the next record due.
  std::deque<PendingAd> pending_;
  std::unordered_map<dht::Key, std::vector<VisibleRecord>, dht::KeyHasher>
      index_;
  transport::Timer ingest_timer_;
  std::uint64_t advertisements_received_ = 0;
  std::uint64_t queries_served_ = 0;
};

}  // namespace ipfs::indexer
