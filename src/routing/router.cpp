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

// --- DhtRouter --------------------------------------------------------------

DhtRouter::DhtRouter(dht::DhtNode& dht) : dht_(dht) {}

ContentRouter::RequestId DhtRouter::find_providers(const dht::Key& key,
                                                   Callback done,
                                                   metrics::SpanId parent_span) {
  const RequestId id = next_id_++;
  metrics::Registry& metrics = dht_.transport().metrics();
  const metrics::SpanId span =
      metrics.begin_span("routing.find.dht", dht_.node(), {}, parent_span);
  pending_.emplace(id, Pending{nullptr, span});
  // The walk may complete synchronously (no candidates), so the entry
  // must exist before the call and the handle is only stored if the
  // callback has not already settled the request.
  const dht::Lookup* walk = dht_.find_providers(
      key,
      [this, id, done = std::move(done)](dht::LookupResult result) {
        const auto it = pending_.find(id);
        if (it == pending_.end()) return;  // cancelled
        FindResult out;
        out.providers = std::move(result.providers);
        out.ok = !out.providers.empty();
        out.source = out.ok ? Source::kDht : Source::kNone;
        dht_.transport().metrics().end_span(it->second.span, out.ok);
        auto finish = std::move(done);
        pending_.erase(it);
        finish(std::move(out));
      },
      span);
  if (const auto it = pending_.find(id); it != pending_.end())
    it->second.walk = walk;
  return id;
}

void DhtRouter::cancel(RequestId request) {
  const auto it = pending_.find(request);
  if (it == pending_.end()) return;
  const Pending entry = it->second;
  pending_.erase(it);
  // Aborting the walk cancels its 3 min deadline timer; its in-flight
  // RPCs resolve via the fabric's own timeouts without reviving it.
  if (entry.walk != nullptr) dht_.cancel_lookup(entry.walk);
  dht_.transport().metrics().end_span(entry.span, false);
}

void DhtRouter::handle_crash() {
  for (auto& [id, entry] : pending_) {
    if (entry.walk != nullptr) dht_.cancel_lookup(entry.walk);
    dht_.transport().metrics().end_span(entry.span, false);
  }
  pending_.clear();
}

// --- IndexerRouter ----------------------------------------------------------

IndexerRouter::IndexerRouter(transport::Transport& transport,
                             RoutingConfig config)
    : transport_(transport),
      self_(transport.local()),
      config_(std::move(config)) {}

ContentRouter::RequestId IndexerRouter::find_providers(
    const dht::Key& key, Callback done, metrics::SpanId parent_span) {
  const RequestId id = next_id_++;
  const metrics::SpanId span = transport_.metrics().begin_span(
      "routing.find.indexer", self_, {}, parent_span);
  Pending pending;
  pending.key = key;
  pending.done = std::move(done);
  pending.span = span;
  pending_.emplace(id, std::move(pending));
  try_next(id);
  return id;
}

void IndexerRouter::try_next(RequestId id) {
  const auto it = pending_.find(id);
  if (it == pending_.end()) return;
  if (it->second.next_indexer >= config_.indexers.size()) {
    settle(id, FindResult{});  // list exhausted: the delegated path failed
    return;
  }
  const sim::NodeId target = config_.indexers[it->second.next_indexer++];
  transport_.connect(target, [this, id, target](bool ok, sim::Duration) {
    const auto pending = pending_.find(id);
    if (pending == pending_.end()) return;  // cancelled while dialing
    if (!ok) {
      transport_.metrics().counter("routing.indexer.failover").inc();
      try_next(id);
      return;
    }
    auto query = std::make_shared<indexer::QueryRequest>();
    query->key = pending->second.key;
    transport_.request(
        target, std::move(query), indexer::kQueryBytes,
        config_.indexer_timeout,
        [this, id](sim::RpcStatus status, const sim::MessagePtr& message) {
          const auto pending = pending_.find(id);
          if (pending == pending_.end()) return;  // cancelled in flight
          const auto* response =
              status == sim::RpcStatus::kOk &&
                      message->kind() == sim::MessageKind::kQueryResponse
                  ? static_cast<const indexer::QueryResponse*>(message.get())
                  : nullptr;
          if (response == nullptr || response->providers.empty()) {
            // Timed out, reset, or the indexer has not (yet) ingested an
            // advertisement for this key: fail over to the next one.
            transport_.metrics().counter("routing.indexer.failover").inc();
            try_next(id);
            return;
          }
          FindResult out;
          out.ok = true;
          out.providers = response->providers;
          out.source = Source::kIndexer;
          settle(id, std::move(out));
        });
  });
}

void IndexerRouter::settle(RequestId id, FindResult result) {
  const auto it = pending_.find(id);
  if (it == pending_.end()) return;
  transport_.metrics().end_span(it->second.span, result.ok);
  auto done = std::move(it->second.done);
  pending_.erase(it);
  done(std::move(result));
}

void IndexerRouter::cancel(RequestId request) {
  const auto it = pending_.find(request);
  if (it == pending_.end()) return;
  transport_.metrics().end_span(it->second.span, false);
  // In-flight dial/RPC callbacks find no entry for the id and stand down;
  // the fabric resolves them within the per-indexer timeout.
  pending_.erase(it);
}

void IndexerRouter::handle_crash() {
  for (auto& [id, entry] : pending_)
    transport_.metrics().end_span(entry.span, false);
  pending_.clear();
}

// --- RaceRouter -------------------------------------------------------------

RaceRouter::RaceRouter(transport::Transport& transport, dht::DhtNode& dht,
                       RoutingConfig config)
    : metrics_(transport.metrics()),
      self_(transport.local()),
      dht_router_(dht),
      indexer_router_(transport, std::move(config)) {}

ContentRouter::RequestId RaceRouter::find_providers(const dht::Key& key,
                                                    Callback done,
                                                    metrics::SpanId parent_span) {
  const RequestId id = next_id_++;
  const metrics::SpanId span =
      metrics_.begin_span("routing.find.race", self_, {}, parent_span);
  Race race;
  race.done = std::move(done);
  race.span = span;
  races_.emplace(id, std::move(race));

  // Launch the indexer arm first (one RTT, the usual winner), then the
  // DHT walk. Either arm may settle synchronously, so the race is
  // re-looked-up after every launch before its request id is recorded.
  const RequestId indexer_req = indexer_router_.find_providers(
      key,
      [this, id](FindResult result) {
        on_arm(id, Source::kIndexer, std::move(result));
      },
      span);
  // Record the arm's request id only while the arm is still running: a
  // synchronous settle already retired the id inside on_arm, and writing
  // it back would hand the winner's cancel path a stale handle (the
  // eclipse schedules hit exactly this: attacker-saturated walks settle
  // synchronously far more often than benign ones).
  if (const auto it = races_.find(id); it != races_.end()) {
    if (!it->second.indexer_done) it->second.indexer_req = indexer_req;
  } else {
    return id;  // settled synchronously
  }

  const RequestId dht_req = dht_router_.find_providers(
      key,
      [this, id](FindResult result) {
        on_arm(id, Source::kDht, std::move(result));
      },
      span);
  if (const auto it = races_.find(id); it != races_.end()) {
    if (!it->second.dht_done) it->second.dht_req = dht_req;
  }
  return id;
}

void RaceRouter::on_arm(RequestId id, Source arm, FindResult result) {
  const auto it = races_.find(id);
  if (it == races_.end()) return;
  Race& race = it->second;
  if (arm == Source::kDht) {
    race.dht_done = true;
    race.dht_req = 0;
  } else {
    race.indexer_done = true;
    race.indexer_req = 0;
  }
  if (result.ok) {
    // First success wins; put down the losing arm so it leaves no
    // foreground timers behind.
    if (arm == Source::kDht && race.indexer_req != 0)
      indexer_router_.cancel(race.indexer_req);
    if (arm == Source::kIndexer && race.dht_req != 0)
      dht_router_.cancel(race.dht_req);
    settle(id, std::move(result));
    return;
  }
  if (race.dht_done && race.indexer_done) settle(id, FindResult{});
}

void RaceRouter::settle(RequestId id, FindResult result) {
  const auto it = races_.find(id);
  if (it == races_.end()) return;
  metrics_.end_span(it->second.span, result.ok);
  auto done = std::move(it->second.done);
  races_.erase(it);
  done(std::move(result));
}

void RaceRouter::cancel(RequestId request) {
  const auto it = races_.find(request);
  if (it == races_.end()) return;
  if (it->second.indexer_req != 0)
    indexer_router_.cancel(it->second.indexer_req);
  if (it->second.dht_req != 0) dht_router_.cancel(it->second.dht_req);
  metrics_.end_span(it->second.span, false);
  races_.erase(it);
}

void RaceRouter::handle_crash() {
  for (auto& [id, race] : races_) metrics_.end_span(race.span, false);
  races_.clear();
  indexer_router_.handle_crash();
  dht_router_.handle_crash();
}

// --- Factory / advertisement push -------------------------------------------

std::unique_ptr<ContentRouter> make_router(transport::Transport& transport,
                                           dht::DhtNode& dht,
                                           const RoutingConfig& config) {
  switch (config.mode) {
    case RoutingConfig::Mode::kDht:
      return std::make_unique<DhtRouter>(dht);
    case RoutingConfig::Mode::kIndexer:
      return std::make_unique<IndexerRouter>(transport, config);
    case RoutingConfig::Mode::kRace:
      return std::make_unique<RaceRouter>(transport, dht, config);
  }
  return std::make_unique<DhtRouter>(dht);
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
