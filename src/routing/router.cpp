#include "routing/router.h"

#include <memory>
#include <utility>

namespace ipfs::routing {

const char* source_name(Source source) {
  switch (source) {
    case Source::kDht:
      return "dht";
    case Source::kIndexer:
      return "indexer";
    case Source::kNone:
      return "none";
  }
  return "none";
}

ContentRouter::ContentRouter(transport::Transport& transport,
                             dht::DhtNode& dht, RoutingConfig config)
    : transport_(transport), dht_(dht), config_(std::move(config)) {}

void ContentRouter::find_providers(const dht::Key& key, Callback done,
                                   metrics::SpanId parent_span) {
  using Mode = RoutingConfig::Mode;
  metrics::Registry& metrics = transport_.metrics();
  const sim::NodeId self = transport_.local();
  const RequestId id = next_id_++;
  Request& request = requests_[id];
  request.key = key;
  request.done = std::move(done);
  if (config_.mode == Mode::kRace) {
    request.paths_left = 2;
    request.race_span =
        metrics.begin_span("routing.find.race", self, {}, parent_span);
    parent_span = request.race_span;
  }

  // The indexer path first (one RTT, the usual winner), then the walk.
  // Either path may settle synchronously, so the request is looked up
  // again after each start.
  if (config_.mode != Mode::kDht) {
    request.indexer_span =
        metrics.begin_span("routing.find.indexer", self, {}, parent_span);
    try_next_indexer(id);
  }
  if (config_.mode == Mode::kIndexer) return;
  auto it = requests_.find(id);
  if (it == requests_.end()) return;
  const metrics::SpanId dht_span =
      metrics.begin_span("routing.find.dht", self, {}, parent_span);
  it->second.dht_span = dht_span;
  const dht::Lookup* walk = dht_.find_providers(
      key,
      [this, id](dht::LookupResult result) {
        const auto it = requests_.find(id);
        if (it == requests_.end()) return;
        FindResult out;
        out.providers = std::move(result.providers);
        out.ok = !out.providers.empty();
        out.source = out.ok ? Source::kDht : Source::kNone;
        transport_.metrics().end_span(std::exchange(it->second.dht_span, 0),
                                      out.ok);
        it->second.walk = nullptr;
        path_done(it, std::move(out));
      },
      dht_span);
  // Hold the handle only while the walk runs: one that finished
  // synchronously is already gone, and a stale handle could later cancel
  // a younger walk that reused its address.
  it = requests_.find(id);
  if (it != requests_.end() && it->second.dht_span != 0) it->second.walk = walk;
}

void ContentRouter::try_next_indexer(RequestId id) {
  const auto it = requests_.find(id);
  Request& request = it->second;
  if (request.next_indexer >= config_.indexers.size()) {
    // List exhausted: the delegated path failed.
    transport_.metrics().end_span(std::exchange(request.indexer_span, 0),
                                  false);
    path_done(it, FindResult{});
    return;
  }
  const sim::NodeId target = config_.indexers[request.next_indexer++];
  transport_.connect(target, [this, id, target](bool ok, sim::Duration) {
    const auto it = requests_.find(id);
    if (it == requests_.end()) return;  // settled or crashed while dialing
    if (!ok) {
      transport_.metrics().counter("routing.indexer.failover").inc();
      try_next_indexer(id);
      return;
    }
    auto query = std::make_shared<indexer::QueryRequest>();
    query->key = it->second.key;
    transport_.request(
        target, std::move(query), indexer::kQueryBytes,
        config_.indexer_timeout,
        [this, id](sim::RpcStatus status, const sim::MessagePtr& message) {
          const auto it = requests_.find(id);
          if (it == requests_.end()) return;  // settled or crashed in flight
          const auto* response =
              status == sim::RpcStatus::kOk &&
                      message->kind() == sim::MessageKind::kQueryResponse
                  ? static_cast<const indexer::QueryResponse*>(message.get())
                  : nullptr;
          if (response == nullptr || response->providers.empty()) {
            // Timed out, reset, or the indexer has not (yet) ingested an
            // advertisement for this key: fail over to the next one.
            transport_.metrics().counter("routing.indexer.failover").inc();
            try_next_indexer(id);
            return;
          }
          FindResult out;
          out.ok = true;
          out.providers = response->providers;
          out.source = Source::kIndexer;
          transport_.metrics().end_span(
              std::exchange(it->second.indexer_span, 0), true);
          path_done(it, std::move(out));
        });
  });
}

void ContentRouter::path_done(Requests::iterator it, FindResult result) {
  Request& request = it->second;
  metrics::Registry& metrics = transport_.metrics();
  if (result.ok) {
    // First success wins: stop the other path so it leaves no foreground
    // timers behind (an out-raced walk would otherwise hold the drain
    // open until its 3 min deadline). Its in-flight RPCs resolve via the
    // fabric's own timeouts and find no request.
    if (request.indexer_span != 0)
      metrics.end_span(std::exchange(request.indexer_span, 0), false);
    if (request.dht_span != 0) {
      if (request.walk != nullptr) dht_.cancel_lookup(request.walk);
      metrics.end_span(std::exchange(request.dht_span, 0), false);
    }
  } else if (--request.paths_left > 0) {
    return;  // the other path still runs
  }
  if (request.race_span != 0) metrics.end_span(request.race_span, result.ok);
  Callback done = std::move(request.done);
  requests_.erase(it);
  done(std::move(result));
}

void ContentRouter::handle_crash() {
  // Race spans, then indexer spans, then walks, each group in request
  // order: the order in which a crash closes spans is part of the trace.
  metrics::Registry& metrics = transport_.metrics();
  for (const auto& [id, request] : requests_)
    if (request.race_span != 0) metrics.end_span(request.race_span, false);
  for (const auto& [id, request] : requests_)
    if (request.indexer_span != 0)
      metrics.end_span(request.indexer_span, false);
  for (const auto& [id, request] : requests_) {
    if (request.dht_span == 0) continue;
    if (request.walk != nullptr) dht_.cancel_lookup(request.walk);
    metrics.end_span(request.dht_span, false);
  }
  requests_.clear();
}

void advertise_to_indexers(transport::Transport& transport,
                           const RoutingConfig& config, const dht::Key& key,
                           const dht::PeerRef& provider) {
  for (const sim::NodeId target : config.indexers) {
    transport.connect(
        target, [&transport, target, key, provider](bool ok, sim::Duration) {
          if (!ok) return;
          auto ad = std::make_shared<indexer::AdvertiseMessage>();
          ad->key = key;
          ad->provider = provider;
          transport.send(target, std::move(ad), indexer::kAdvertiseBytes);
          transport.metrics().counter("routing.advertisements_sent").inc();
        });
  }
}

}  // namespace ipfs::routing
