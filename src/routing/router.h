// Content routing: who answers "which peers provide this CID?"
//
// The paper's retrieval breakdown (Section 6.2, Fig. 10) shows the DHT
// walk dominating fetch latency; the production network's answer is
// delegated routing to network indexers (cid.contact — see "The Cloud
// Strikes Back", Balduf et al., and docs/ROUTING.md for the
// centralization trade-off). RoutingConfig::mode picks the paths a
// ContentRouter runs:
//
//   kDht      — the paper's baseline: an iterative dht::Lookup walk.
//   kIndexer  — one-RTT delegated query against a configured list of
//               indexers, with per-indexer timeout and failover.
//   kRace     — both at once; the first success wins and the other path
//               is stopped (kubo's parallel router composition).
//
// Each path reports through metrics::Registry as a routing.find.<path>
// span (routing.find.race parents both in race mode), and the winning
// source is surfaced to the caller so the retrieval layer can record
// routing.source.* counters and routing.latency.* histograms.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
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
  // Delegated indexers in query order (the indexer path fails over down
  // the list). Empty with kIndexer/kRace means the indexer path always
  // fails.
  std::vector<sim::NodeId> indexers;
  // Per-indexer RPC budget before failing over to the next one. Dials to
  // a dead indexer additionally pay the transport's dial timeout.
  sim::Duration indexer_timeout = sim::seconds(2);
};

struct FindResult {
  bool ok = false;
  std::vector<dht::ProviderRecord> providers;
  Source source = Source::kNone;
};

// Runs the paths `config.mode` selects for each provider lookup. The
// indexer path dials an indexer and sends a QueryRequest; an unreachable,
// timed-out or empty-handed indexer fails over to the next in the list,
// and the path fails once the list is exhausted. The DHT path is
// dht::DhtNode's iterative provider walk. The first success settles the
// lookup and stops the other path, so it leaves no foreground timers; the
// lookup fails when every path it started has failed, so with every
// indexer down race mode degrades to exactly the DHT baseline.
class ContentRouter {
 public:
  using Callback = std::function<void(FindResult)>;

  ContentRouter(transport::Transport& transport, dht::DhtNode& dht,
                RoutingConfig config);
  // In-flight callbacks hold `this`.
  ContentRouter(const ContentRouter&) = delete;
  ContentRouter& operator=(const ContentRouter&) = delete;

  // Starts a provider lookup. The callback fires exactly once, unless the
  // node crashes first, in which case it never fires.
  void find_providers(const dht::Key& key, Callback done,
                      metrics::SpanId parent_span);

  // Crash semantics (sim/faults.h): every in-flight lookup is abandoned
  // without its callback, its open spans are closed and its walk is
  // cancelled.
  void handle_crash();

 private:
  using RequestId = std::uint64_t;

  struct Request {
    dht::Key key;
    Callback done;
    int paths_left = 1;  // paths of the mode that have not failed yet
    metrics::SpanId race_span = 0;  // kRace only
    // Each path's span is nonzero while the path runs.
    metrics::SpanId indexer_span = 0;
    std::size_t next_indexer = 0;
    metrics::SpanId dht_span = 0;
    const dht::Lookup* walk = nullptr;
  };
  // Ordered by id, so a crash closes lookups in the order they began.
  using Requests = std::map<RequestId, Request>;

  void try_next_indexer(RequestId id);
  // The path whose span was just ended produced `result`: a success
  // stops the other path and settles; a failure settles once every path
  // of the mode has failed.
  void path_done(Requests::iterator it, FindResult result);

  transport::Transport& transport_;
  dht::DhtNode& dht_;
  RoutingConfig config_;
  Requests requests_;
  RequestId next_id_ = 1;
};

// Provider-side advertisement push (provide/reprovide): dials every
// configured indexer and fires an AdvertiseMessage at it — fire and
// forget, like the DHT's ADD_PROVIDER. Records become queryable after
// the indexer's ingest lag.
void advertise_to_indexers(transport::Transport& transport,
                           const RoutingConfig& config, const dht::Key& key,
                           const dht::PeerRef& provider);

}  // namespace ipfs::routing
