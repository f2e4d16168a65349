#include "gateway/gateway.h"

#include "merkledag/merkledag.h"
#include "merkledag/unixfs.h"

namespace ipfs::gateway {

Gateway::Gateway(sim::Network& network, const GatewayConfig& config)
    : config_(config),
      node_(network, config.node),
      transport_(node_.transport()),
      nginx_cache_(config.nginx_cache_bytes, config.edge_cache) {}

void Gateway::bootstrap(std::vector<dht::PeerRef> seeds,
                        std::function<void(bool)> done) {
  node_.bootstrap(std::move(seeds), std::move(done));
}

void Gateway::pin_object(std::span<const std::uint8_t> data) {
  const auto result = merkledag::import_bytes(node_.store(), data);
  node_.store().pin(result.root);
}

namespace {

const char* tier_name(ServedFrom source) {
  switch (source) {
    case ServedFrom::kNginxCache:
      return "nginx_cache";
    case ServedFrom::kNodeStore:
      return "node_store";
    case ServedFrom::kOriginCache:
      return "origin_cache";
    case ServedFrom::kP2p:
      return "p2p";
    case ServedFrom::kFailed:
      return "failed";
  }
  return "failed";
}

}  // namespace

const TierStats& Gateway::stats(ServedFrom source) const {
  return tier_stats_[static_cast<std::size_t>(source)];
}

void Gateway::account(const Cid& cid, const GatewayResponse& response) {
  ++total_requests_;
  TierStats& tier = tier_stats_[static_cast<std::size_t>(response.source)];
  ++tier.requests;
  tier.bytes += response.bytes;

  metrics::Registry& metrics = transport_.metrics();
  const std::string name = tier_name(response.source);
  metrics.counter("gateway.requests").inc();
  metrics.counter("gateway.tier." + name + ".requests").inc();
  metrics.counter("gateway.tier." + name + ".bytes").inc(response.bytes);
  metrics.histogram("gateway.latency." + name)
      .record(response.latency);
  metrics.instant("gateway.served." + name, node_.node(), cid.to_string(),
                  response.bytes);
  // Fleet replicas additionally label their counters so the registry
  // keeps per-replica tier shares (docs/OBSERVABILITY.md).
  if (!config_.metrics_label.empty()) {
    const std::string prefix = "gateway." + config_.metrics_label + ".";
    metrics.counter(prefix + "requests").inc();
    metrics.counter(prefix + "tier." + name + ".requests").inc();
    metrics.counter(prefix + "tier." + name + ".bytes").inc(response.bytes);
  }
  // P2P-tier requests additionally record which routing path served them
  // (the indexer-vs-DHT split of the bridge's upstream traffic).
  if (response.source == ServedFrom::kP2p) {
    metrics
        .counter(std::string("gateway.routing.") +
                 routing::source_name(response.routing_source))
        .inc();
  }
}

void Gateway::handle_get(const Cid& cid,
                         std::function<void(GatewayResponse)> done) {
  serve(cid, /*account_tier=*/true, std::move(done));
}

void Gateway::reply(const Cid& cid, bool account_tier,
                    const GatewayResponse& response,
                    std::function<void(GatewayResponse)> done) {
  if (account_tier) account(cid, response);
  transport_.schedule_after(
      response.latency, [response, done = std::move(done)] { done(response); });
}

void Gateway::drop_transient(const Cid& root) {
  if (node_.store().pinned(root)) return;
  if (const auto cids = merkledag::enumerate(node_.store(), root)) {
    for (const auto& cid : *cids) node_.store().remove(cid);
  }
}

void Gateway::serve(const Cid& cid, bool account_tier,
                    std::function<void(GatewayResponse)> done) {
  // Tier 1: nginx-style edge cache; the hit reads the object's size.
  if (const auto cached = nginx_cache_.get(cid)) {
    reply(cid, account_tier,
          {.source = ServedFrom::kNginxCache,
           .latency = kNginxHitLatency,
           .bytes = *cached},
          std::move(done));
    return;
  }

  // Tier 2: the co-located IPFS node's store (pinned content), only when
  // it holds the whole DAG.
  if (const auto local = merkledag::content_size(node_.store(), cid)) {
    nginx_cache_.put(cid, *local);
    // Write through to the shared origin so spilled requests for this
    // replica's pinned partition stay inside the fleet.
    if (config_.origin) config_.origin->put(cid, *local);
    reply(cid, account_tier,
          {.source = ServedFrom::kNodeStore,
           .latency = kNodeStoreBaseLatency +
                      sim::seconds(static_cast<double>(*local) /
                                   kNodeStoreBytesPerSec),
           .bytes = *local},
          std::move(done));
    return;
  }

  // Tier 3: the fleet's shared origin cache (replicas only).
  if (config_.origin) {
    if (const auto cached = config_.origin->get(cid)) {
      nginx_cache_.put(cid, *cached);
      reply(cid, account_tier,
            {.source = ServedFrom::kOriginCache,
             .latency = kOriginHitLatency +
                        sim::seconds(static_cast<double>(*cached) /
                                     kOriginBytesPerSec),
             .bytes = *cached},
            std::move(done));
      return;
    }
  }

  // Negative-result cache: a recent failed retrieval of this CID means
  // a repeat crowd gets its typed failure in edge-cache time instead of
  // re-paying the doomed pipeline (the dead-CID stampede fix).
  const auto negative = negative_until_.find(cid);
  if (negative != negative_until_.end()) {
    if (transport_.now() < negative->second) {
      ++negative_hits_;
      transport_.metrics().counter("gateway.negative.hits").inc();
      reply(cid, account_tier,
            {.source = ServedFrom::kFailed, .latency = kNginxHitLatency},
            std::move(done));
      return;
    }
    negative_until_.erase(negative);  // expired: retry the full path
  }

  // Tier 4: the P2P network, via the full retrieval pipeline. Concurrent
  // misses for the same CID coalesce onto one in-flight retrieval
  // (singleflight): a flash crowd of requests costs the upstream exactly
  // one DHT walk and one fetch, and every waiter is answered — and
  // accounted — from the shared completion.
  const auto [it, leader] = inflight_.try_emplace(cid);
  it->second.push_back(
      Waiter{account_tier, transport_.now(), std::move(done)});
  if (!leader) {
    ++coalesced_requests_;
    transport_.metrics().counter("gateway.p2p.coalesced").inc();
    return;
  }
  node_.retrieve(cid, [this, cid](node::RetrievalTrace trace) {
    std::vector<Waiter> waiters;
    if (const auto entry = inflight_.find(cid); entry != inflight_.end()) {
      waiters = std::move(entry->second);
      inflight_.erase(entry);
    }
    const sim::Time end = transport_.now();
    GatewayResponse response;
    if (!trace.ok) {
      response.source = ServedFrom::kFailed;
      negative_until_[cid] = end + kNegativeTtl;
      transport_.metrics().counter("gateway.negative.stores").inc();
    } else {
      response.source = ServedFrom::kP2p;
      response.routing_source = trace.routing_source;
      // The bridge node serves millions of CIDs from ever-changing
      // providers; its connection manager churns through connections far
      // faster than our handful of simulated hosts would suggest. Drop the
      // provider connection so the next miss pays the full pipeline, as
      // the paper's non-cached tier does (Table 5: 4.04 s median).
      if (trace.provider_node != sim::kInvalidNode)
        node_.disconnect_from(trace.provider_node);
      const auto size = merkledag::content_size(node_.store(), cid);
      response.bytes = size ? *size : trace.bytes;
      if (size) {
        nginx_cache_.put(cid, *size);
        if (config_.origin) config_.origin->put(cid, *size);
        drop_transient(cid);
      }
    }
    for (auto& waiter : waiters) {
      GatewayResponse out = response;
      // Each waiter saw its own wait: completion minus its arrival (for
      // the leader this equals trace.total).
      out.latency = end - waiter.start;
      if (waiter.account_tier) account(cid, out);
      waiter.done(out);
    }
  });
}


std::optional<std::pair<Cid, std::string>> Gateway::parse_url_path(
    std::string_view url_path) {
  constexpr std::string_view kPrefix = "/ipfs/";
  if (!url_path.starts_with(kPrefix)) return std::nullopt;
  url_path.remove_prefix(kPrefix.size());
  const std::size_t slash = url_path.find('/');
  const std::string_view cid_text = url_path.substr(0, slash);
  const auto cid = Cid::parse(cid_text);
  if (!cid) return std::nullopt;
  std::string rest;
  if (slash != std::string_view::npos)
    rest = std::string(url_path.substr(slash + 1));
  return std::make_pair(*cid, std::move(rest));
}

void Gateway::handle_get_path(const Cid& root, const std::string& path,
                              std::function<void(GatewayResponse)> done) {
  if (path.empty()) {
    handle_get(root, std::move(done));
    return;
  }

  // Resolution against local content (pinned trees).
  if (const auto target = merkledag::resolve_path(node_.store(), root, path)) {
    handle_get(*target, std::move(done));
    return;
  }

  // Fetch the tree from the network, then resolve and serve. The whole
  // request paid the P2P pipeline, so it is accounted exactly once, as a
  // kP2p (or kFailed) request — serve() runs unaccounted and the final,
  // rewritten response is what lands in the stats.
  node_.retrieve(root, [this, root, path, done = std::move(done)](
                           node::RetrievalTrace trace) {
    GatewayResponse failure;
    failure.source = ServedFrom::kFailed;
    failure.latency = trace.total;
    if (!trace.ok) {
      account(root, failure);
      done(failure);
      return;
    }
    const auto target = merkledag::resolve_path(node_.store(), root, path);
    if (!target) {
      account(root, failure);
      done(failure);  // 404: no such path below the root
      return;
    }
    // Serve the resolved file; it is in the bridge store right now, so
    // the response carries the file's bytes plus the P2P latency we just
    // paid.
    serve(*target, /*account_tier=*/false,
          [this, root, trace, done = std::move(done)](
              GatewayResponse response) {
            if (response.source != ServedFrom::kFailed) {
              response.source = ServedFrom::kP2p;
              response.routing_source = trace.routing_source;
            }
            response.latency += trace.total;
            drop_transient(root);
            account(root, response);
            done(response);
          });
  });
}

}  // namespace ipfs::gateway
