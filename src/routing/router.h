// Pluggable content routing: who answers "which peers provide this CID?"
//
// The paper's retrieval breakdown (Section 6.2, Fig. 10) shows the DHT
// walk dominating fetch latency; the production network's answer is
// delegated routing to network indexers (cid.contact — see "The Cloud
// Strikes Back", Balduf et al., and docs/ROUTING.md for the
// centralization trade-off). This layer makes the choice a config knob:
//
//   DhtRouter      — the paper's baseline: an iterative dht::Lookup walk.
//   IndexerRouter  — one-RTT delegated query against a configured list of
//                    indexers, with per-indexer timeout and failover.
//   RaceRouter     — launches both and cancels the loser, first success
//                    wins (kubo's parallel router composition).
//
// Every implementation reports through metrics::Registry: a
// routing.find.<impl> span per lookup (parented under the caller's
// phase span), with the winning source surfaced to the caller so the
// retrieval layer can record routing.source.* counters and
// routing.latency.* histograms.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "dht/dht_node.h"
#include "indexer/messages.h"
#include "metrics/metrics.h"
#include "transport/transport.h"

namespace ipfs::routing {

// Which routing path produced a result. kNone: the lookup failed.
enum class Source { kNone, kDht, kIndexer };

const char* source_name(Source source);

struct RoutingConfig {
  enum class Mode { kDht, kIndexer, kRace };

  Mode mode = Mode::kDht;
  // Delegated indexers in query order (IndexerRouter fails over down the
  // list). Empty with kIndexer/kRace means the indexer path always fails.
  std::vector<sim::NodeId> indexers;
  // Per-indexer RPC budget before failing over to the next one. Dials to
  // a dead indexer additionally pay the transport's dial timeout.
  sim::Duration indexer_timeout = sim::seconds(2);

  RoutingConfig& with_mode(Mode m) {
    mode = m;
    return *this;
  }
};

struct FindResult {
  bool ok = false;
  std::vector<dht::ProviderRecord> providers;
  Source source = Source::kNone;
};

class ContentRouter {
 public:
  using Callback = std::function<void(FindResult)>;
  using RequestId = std::uint64_t;

  virtual ~ContentRouter() = default;

  // Starts a provider lookup. The callback fires exactly once — unless
  // the request is cancelled or the node crashes first, in which case it
  // never fires. Returns an id for cancel(); ids are never reused.
  virtual RequestId find_providers(const dht::Key& key, Callback done,
                                   metrics::SpanId parent_span) = 0;

  // Abandons the request WITHOUT invoking its callback, cancelling any
  // foreground timers it owns (a cancelled DHT walk must not keep
  // Simulator::run() alive until the 3 min lookup deadline). Unknown or
  // already-completed ids are a no-op.
  virtual void cancel(RequestId request) = 0;

  // Crash semantics (sim/faults.h): every in-flight request is abandoned
  // without its callback, and open spans are closed.
  virtual void handle_crash() = 0;
};

// The paper's baseline: wraps dht::DhtNode's iterative provider walk.
class DhtRouter : public ContentRouter {
 public:
  explicit DhtRouter(dht::DhtNode& dht);

  RequestId find_providers(const dht::Key& key, Callback done,
                           metrics::SpanId parent_span) override;
  void cancel(RequestId request) override;
  void handle_crash() override;

 private:
  struct Pending {
    const dht::Lookup* walk = nullptr;
    metrics::SpanId span = 0;
  };

  dht::DhtNode& dht_;
  std::unordered_map<RequestId, Pending> pending_;
  RequestId next_id_ = 1;
};

// One-RTT delegated lookup: dial an indexer, send a QueryRequest, use
// the records it returns. An unreachable, timed-out or empty-handed
// indexer triggers failover to the next in the configured list; the
// lookup fails once the list is exhausted.
class IndexerRouter : public ContentRouter {
 public:
  IndexerRouter(transport::Transport& transport, RoutingConfig config);

  RequestId find_providers(const dht::Key& key, Callback done,
                           metrics::SpanId parent_span) override;
  void cancel(RequestId request) override;
  void handle_crash() override;

 private:
  struct Pending {
    dht::Key key;
    Callback done;
    std::size_t next_indexer = 0;
    metrics::SpanId span = 0;
  };

  void try_next(RequestId id);
  void settle(RequestId id, FindResult result);

  transport::Transport& transport_;
  sim::NodeId self_;
  RoutingConfig config_;
  std::unordered_map<RequestId, Pending> pending_;
  RequestId next_id_ = 1;
};

// First-success race between the indexer path and the DHT walk; the
// loser is cancelled so it leaves no dangling timers. Both arms failing
// fails the lookup — so with every indexer down the race degrades to
// exactly the DHT baseline.
class RaceRouter : public ContentRouter {
 public:
  RaceRouter(transport::Transport& transport, dht::DhtNode& dht,
             RoutingConfig config);

  RequestId find_providers(const dht::Key& key, Callback done,
                           metrics::SpanId parent_span) override;
  void cancel(RequestId request) override;
  void handle_crash() override;

 private:
  struct Race {
    Callback done;
    metrics::SpanId span = 0;
    RequestId dht_req = 0;
    RequestId indexer_req = 0;
    bool dht_done = false;
    bool indexer_done = false;
  };

  void on_arm(RequestId id, Source arm, FindResult result);
  void settle(RequestId id, FindResult result);

  metrics::Registry& metrics_;
  sim::NodeId self_;
  DhtRouter dht_router_;
  IndexerRouter indexer_router_;
  std::unordered_map<RequestId, Race> races_;
  RequestId next_id_ = 1;
};

// Builds the router selected by `config.mode`.
std::unique_ptr<ContentRouter> make_router(transport::Transport& transport,
                                           dht::DhtNode& dht,
                                           const RoutingConfig& config);

// Provider-side advertisement push (provide/reprovide): dials every
// configured indexer and fires an AdvertiseMessage at it — fire and
// forget, like the DHT's ADD_PROVIDER. Records become queryable after
// the indexer's ingest lag.
void advertise_to_indexers(transport::Transport& transport,
                           const RoutingConfig& config, const dht::Key& key,
                           const dht::PeerRef& provider);

}  // namespace ipfs::routing
