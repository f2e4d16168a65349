#include "node/ipfs_node.h"

#include "transport/sim_transport.h"

namespace ipfs::node {
namespace {

multiformats::PeerId peer_id_for(const crypto::Ed25519KeyPair& keypair) {
  return multiformats::PeerId::from_public_key(keypair.public_key);
}

// Per-node listen address, spread across 10.x/16 prefixes so the routing
// table's IP-diversity cap (docs/ADVERSARY.md) sees honest peers as
// distinct networks. Message sizes are count-based, so the address bytes
// never influence timing.
multiformats::Multiaddr listen_address_for(std::uint64_t seed) {
  return multiformats::make_tcp_multiaddr(
      "10." + std::to_string(seed % 250) + "." +
          std::to_string((seed / 250) % 250) + ".1",
      4001);
}

}  // namespace

double RetrievalTrace::stretch() const {
  const double https = sim::to_seconds(dial + negotiate + fetch);
  if (https <= 0.0) return 1.0;
  return sim::to_seconds(discover() + dial + negotiate + fetch) / https;
}

double RetrievalTrace::stretch_without_bitswap() const {
  const double https = sim::to_seconds(dial + negotiate + fetch);
  if (https <= 0.0) return 1.0;
  return sim::to_seconds(provider_walk + peer_walk + dial + negotiate + fetch) /
         https;
}

crypto::Ed25519KeyPair IpfsNode::derive_keypair(std::uint64_t seed) {
  crypto::Ed25519Seed bytes{};
  for (int i = 0; i < 8; ++i)
    bytes[i] = static_cast<std::uint8_t>(seed >> (8 * i));
  bytes[8] = 0x1f;  // domain separation from other seed uses
  return crypto::ed25519_keypair(bytes);
}

IpfsNode::IpfsNode(transport::Transport& transport,
                   const IpfsNodeConfig& config)
    : transport_(transport),
      node_(transport.local()),
      config_(config),
      keypair_(derive_keypair(config.identity_seed)),
      store_(blockstore::make_store(config.store, &transport.metrics())),
      dht_(transport, peer_id_for(keypair_),
           {listen_address_for(config.identity_seed)}),
      router_(transport, dht_, config.routing),
      bitswap_(transport, *store_),
      conn_manager_(transport, config.conn_manager) {
  dht_.set_provider_quorum(config.provider_quorum);
  if (config.bucket_diversity_cap > 0)
    dht_.set_bucket_diversity_cap(config.bucket_diversity_cap);
  // Protocol multiplexer: route requests to the DHT, then Bitswap.
  transport_.set_request_handler(
      [this](sim::NodeId from, const sim::MessagePtr& message, auto respond) {
        if (dht_.handle_request(from, message, respond)) return;
        bitswap_.handle_request(from, message, respond);
      });
  transport_.set_message_handler(
      [this](sim::NodeId from, const sim::MessagePtr& message) {
        if (dht_.handle_message(from, message)) return;
        if (pubsub_) pubsub_->handle_message(from, message);
      });
  if (config.enable_pubsub) {
    pubsub::PubsubConfig pubsub_config = config.pubsub;
    if (pubsub_config.seed == 0) pubsub_config.seed = config.identity_seed;
    pubsub_ = std::make_unique<pubsub::Pubsub>(transport_, pubsub_config);
    name_resolver_ = std::make_unique<ipns::PubsubResolver>(dht_, *pubsub_);
  }
  if (!config_.routing.indexers.empty()) {
    // The 12 h republish re-advertises to indexers too, so indexer state
    // (wiped by an indexer crash) survives on the same cadence as DHT
    // provider records.
    dht_.set_republish_hook([this](const dht::Key& key) {
      routing::advertise_to_indexers(transport_, config_.routing, key,
                                     dht_.self());
    });
  }
  if (config_.store.flush_interval_us > 0) arm_flush_timer();
}

void IpfsNode::arm_flush_timer() {
  flush_timer_ = transport_.schedule_daemon_after(
      sim::microseconds(config_.store.flush_interval_us), [this] {
        store_->flush();
        arm_flush_timer();
      });
}

IpfsNode::IpfsNode(std::unique_ptr<transport::Transport> transport,
                   const IpfsNodeConfig& config)
    : IpfsNode(*transport, config) {
  owned_transport_ = std::move(transport);
}

IpfsNode::IpfsNode(sim::Network& network, const IpfsNodeConfig& config)
    : IpfsNode(std::make_unique<transport::SimTransport>(network, config.net),
               config) {}

IpfsNode::~IpfsNode() = default;

void IpfsNode::bootstrap(std::vector<dht::PeerRef> seeds,
                         std::function<void(bool)> done) {
  for (const auto& seed : seeds) {
    address_book_.insert(seed);
    conn_manager_.protect(seed.node);
    // Bootstrap peers double as ambient pubsub candidates; px and
    // subscription announcements take over from there.
    if (pubsub_) pubsub_->add_candidate_peer(seed.node);
  }
  dht_.bootstrap(std::move(seeds), std::move(done));
}

merkledag::ImportResult IpfsNode::add(std::span<const std::uint8_t> data) {
  auto result = merkledag::import_bytes(*store_, data);
  store_->pin(result.root);
  // Publication durability: an add() is the node acking the content, so
  // the store fsyncs the new records before we hand out the CID.
  store_->flush();
  return result;
}

void IpfsNode::provide(const Cid& cid, std::function<void(PublishTrace)> done,
                       std::size_t max_records) {
  const dht::Key key = dht::Key::for_cid(cid);
  metrics::Registry& metrics = transport_.metrics();

  // Advertisement push to the configured indexers runs alongside the DHT
  // publication (the IPNI announce path is independent of the DHT walk).
  // Records become queryable after the indexers' ingest lag.
  routing::advertise_to_indexers(transport_, config_.routing, key,
                                 dht_.self());

  // The trace's timing fields are derived from these spans: each phase
  // duration is whatever end_span reports, not a hand-maintained clock.
  const metrics::SpanId total_span =
      metrics.begin_span("publish.total", node_, cid.to_string());
  const metrics::SpanId walk_span = metrics.begin_span(
      "publish.walk", node_, cid.to_string(), total_span);

  dht_.lookup_closest(
      key,
      [this, cid, key, max_records, total_span, walk_span,
       done = std::move(done)](dht::LookupResult walk) {
        const sim::Duration walk_elapsed =
            transport_.metrics().end_span(walk_span, !walk.closest.empty());
        // The walk held dozens of connections open; the connection manager
        // has trimmed down by the time the store batch begins, so most of
        // the 20 targets need a fresh dial (Section 6.1's timeout spikes).
        conn_manager_.trim();

        auto targets = walk.closest;
        if (targets.size() > max_records) targets.resize(max_records);
        const metrics::SpanId batch_span = transport_.metrics().begin_span(
            "publish.rpc_batch", node_, cid.to_string(), total_span);
        dht_.store_provider_records(
            key, targets,
            [this, cid, walk_elapsed, total_span, batch_span,
             done = std::move(done)](dht::DhtNode::StoreBatchResult batch) {
              PublishTrace trace;
              trace.cid = cid;
              trace.walk = walk_elapsed;
              trace.ok = batch.sent > 0;
              trace.rpc_batch =
                  transport_.metrics().end_span(batch_span, trace.ok);
              trace.provider_records_sent = batch.sent;
              trace.total = transport_.metrics().end_span(
                  total_span, trace.ok,
                  static_cast<std::uint64_t>(batch.sent));
              if (trace.ok) dht_.start_reproviding(dht::Key::for_cid(cid));
              done(trace);
            });
      },
      walk_span);
}

void IpfsNode::publish(std::span<const std::uint8_t> data,
                       std::function<void(PublishTrace)> done) {
  const auto import = add(data);
  provide(import.root, std::move(done));
}

// Closes the retrieval's root span and delivers the trace. trace.total is
// the span's duration — the one clock shared with the trace stream.
void IpfsNode::finish(const std::shared_ptr<RetrievalCtx>& ctx) {
  ctx->trace.total = transport_.metrics().end_span(ctx->span, ctx->trace.ok,
                                                   ctx->trace.bytes);
  ctx->done(ctx->trace);
}

void IpfsNode::retrieve(const Cid& cid,
                        std::function<void(RetrievalTrace)> done) {
  auto ctx = std::make_shared<RetrievalCtx>();
  ctx->done = std::move(done);
  ctx->trace.cid = cid;
  ctx->span = transport_.metrics().begin_span("retrieve.total", node_,
                                              cid.to_string());

  // Phase 0: the object may be complete locally.
  if (merkledag::content_size(*store_, cid).has_value()) {
    ctx->trace.ok = true;
    ctx->trace.local_hit = true;
    finish(ctx);
    return;
  }

  // Phase 1: opportunistic Bitswap to already connected peers (step 4).
  // Phase 2 starts when the window misses or, with parallel_dht_lookup,
  // together with it (Section 6.4: extra network requests traded for
  // latency). The first source found drives the fetch; a late result
  // from the other phase closes its span with ok=false and is dropped.
  const bool parallel = config_.parallel_dht_lookup;
  const metrics::SpanId discovery_span = transport_.metrics().begin_span(
      "retrieve.bitswap_discovery", node_, cid.to_string(), ctx->span);
  if (parallel) {
    ctx->walk_span = transport_.metrics().begin_span(
        "retrieve.provider_walk", node_, cid.to_string(), ctx->span);
  }
  bitswap_.discover(
      cid,
      [this, ctx, discovery_span,
       parallel](std::optional<sim::NodeId> holder) {
        const sim::Duration elapsed = transport_.metrics().end_span(
            discovery_span, holder.has_value() && !ctx->fetching);
        if (ctx->fetching) return;  // the walk found a source first
        // A missed window that overlapped the walk was not on the critical
        // path, so it stays 0 (Fig. 10's stretch reads this field).
        if (holder || !parallel) ctx->trace.bitswap_discovery = elapsed;
        if (holder) {
          ctx->trace.bitswap_hit = true;
          ctx->fetching = true;
          fetch_from(ctx, *holder);
          return;
        }
        ctx->bitswap_missed = true;
        if (parallel) {
          if (ctx->walk_failed) finish(ctx);  // both phases missed
          return;
        }
        ctx->walk_span = transport_.metrics().begin_span(
            "retrieve.provider_walk", node_, ctx->trace.cid.to_string(),
            ctx->span);
        find_providers(ctx);
      },
      config_.bitswap_early_exit);
  if (parallel) find_providers(ctx);
}

void IpfsNode::find_providers(const std::shared_ptr<RetrievalCtx>& ctx) {
  // Phase 2: content discovery through the configured ContentRouter
  // (step 5: the DHT walk, a delegated indexer query, or a race).
  router_.find_providers(
      dht::Key::for_cid(ctx->trace.cid),
      [this, ctx](routing::FindResult result) {
        const sim::Duration elapsed = transport_.metrics().end_span(
            ctx->walk_span, result.ok && !ctx->fetching);
        if (ctx->fetching) return;  // Bitswap won; the source stays kNone
        record_routing_outcome(ctx, result.source, elapsed);
        // A failed walk that overlapped the window was not on the
        // critical path either, so it stays 0.
        if (result.ok || !config_.parallel_dht_lookup)
          ctx->trace.provider_walk = elapsed;
        if (!result.ok) {
          ctx->walk_failed = true;
          if (ctx->bitswap_missed) finish(ctx);  // both phases missed
          return;
        }
        ctx->fetching = true;
        for (const auto& record : result.providers)
          ctx->providers.push_back(record.provider);
        ctx->next_provider = 1;
        finish_retrieval(ctx, ctx->providers.front());
      },
      ctx->walk_span);
}

void IpfsNode::record_routing_outcome(const std::shared_ptr<RetrievalCtx>& ctx,
                                      routing::Source source,
                                      sim::Duration elapsed) {
  ctx->trace.routing_source = source;
  metrics::Registry& metrics = transport_.metrics();
  const std::string name = routing::source_name(source);
  metrics.counter("routing.source." + name).inc();
  metrics.histogram("routing.latency." + name).record(elapsed);
  metrics.instant("retrieve.routing_source", node_, ctx->trace.cid.to_string(),
                  static_cast<std::uint64_t>(source), metrics::kNoNode,
                  ctx->span);
}

void IpfsNode::fail_or_fallback(std::shared_ptr<RetrievalCtx> ctx) {
  // A poisoned or dead provider record is survivable when the walk
  // gathered more than one (provider quorum): dial the next record in
  // discovery order instead of failing the whole retrieval.
  if (ctx->next_provider < ctx->providers.size()) {
    const dht::PeerRef next = ctx->providers[ctx->next_provider++];
    ++ctx->trace.provider_fallbacks;
    transport_.metrics().counter("retrieve.provider_fallbacks").inc();
    finish_retrieval(std::move(ctx), next);
    return;
  }
  finish(ctx);
}

void IpfsNode::finish_retrieval(std::shared_ptr<RetrievalCtx> ctx,
                                const dht::PeerRef& provider) {
  // Phase 3: peer discovery. Use the provider's address if the record
  // carried one or the address book knows it; otherwise DHT walk #2.
  dht::PeerRef resolved = provider;
  if (resolved.node == sim::kInvalidNode) {
    if (const auto known = address_book_.find(provider.id)) {
      resolved = *known;
    }
  }

  if (resolved.node != sim::kInvalidNode) {
    address_book_.insert(resolved);
    fetch_from(std::move(ctx), resolved.node);
    return;
  }

  ctx->trace.used_peer_walk = true;
  const metrics::SpanId peer_walk_span = transport_.metrics().begin_span(
      "retrieve.peer_walk", node_, ctx->trace.cid.to_string(), ctx->span);
  dht_.find_peer(
      provider.id,
      [this, ctx, peer_walk_span](std::optional<dht::PeerRef> peer,
                                  dht::LookupResult) {
        ctx->trace.peer_walk =
            transport_.metrics().end_span(peer_walk_span, peer.has_value());
        if (!peer) {
          fail_or_fallback(ctx);
          return;
        }
        address_book_.insert(*peer);
        fetch_from(ctx, peer->node);
      },
      peer_walk_span);
}

void IpfsNode::fetch_from(std::shared_ptr<RetrievalCtx> ctx, sim::NodeId peer) {
  // Phase 4: peer routing (dial + negotiate), then content exchange.
  const metrics::SpanId dial_span = transport_.metrics().begin_span(
      "retrieve.dial", node_, ctx->trace.cid.to_string(), ctx->span, peer);
  transport_.connect(
      peer, [this, ctx, peer, dial_span](bool ok, sim::Duration elapsed) {
        const sim::Duration handshake =
            transport_.metrics().end_span(dial_span, ok);
        (void)elapsed;  // == handshake: the span brackets the dial exactly
        if (!ok) {
          fail_or_fallback(ctx);
          return;
        }
        // Split the handshake into its transport (Dial) and security/mux
        // (Negotiate) parts by round-trip share — Equation 2 needs both.
        const int round_trips = transport_.handshake_round_trips(peer);
        ctx->trace.dial = handshake / round_trips;
        ctx->trace.negotiate = handshake - ctx->trace.dial;
        conn_manager_.protect(peer);

        const metrics::SpanId fetch_span = transport_.metrics().begin_span(
            "retrieve.fetch", node_, ctx->trace.cid.to_string(), ctx->span,
            peer);
        bitswap_.fetch_dag(
            peer, ctx->trace.cid,
            [this, ctx, peer, fetch_span](bitswap::FetchStats stats) {
              conn_manager_.unprotect(peer);
              ctx->trace.provider_node = peer;
              ctx->trace.bytes = stats.bytes;
              ctx->trace.ok = stats.ok;
              ctx->trace.fetch = transport_.metrics().end_span(
                  fetch_span, stats.ok, stats.bytes);
              if (!ctx->trace.ok) {
                fail_or_fallback(ctx);
                return;
              }
              if (config_.provide_after_fetch) {
                // Become a temporary provider (Section 3.1), without
                // affecting the measured retrieval.
                store_->pin(ctx->trace.cid);
                dht_.provide(dht::Key::for_cid(ctx->trace.cid),
                             [](dht::DhtNode::ProvideResult) {});
              }
              finish(ctx);
            });
      });
}

void IpfsNode::publish_name(const Cid& target, std::uint64_t sequence,
                            std::function<void(bool, int)> done) {
  if (name_resolver_) {
    name_resolver_->publish(keypair_, target, sequence, std::move(done));
    return;
  }
  ipns::publish(dht_, keypair_, target, sequence, std::move(done));
}

void IpfsNode::resolve_name(const multiformats::PeerId& name,
                            std::function<void(std::optional<Cid>)> done) {
  if (name_resolver_) {
    name_resolver_->resolve(name, std::move(done));
    return;
  }
  ipns::resolve(dht_, name, std::move(done));
}

void IpfsNode::follow_name(const multiformats::PeerId& name) {
  if (name_resolver_) name_resolver_->follow(name);
}

void IpfsNode::handle_crash() {
  // The router first: it cancels its in-flight walks through dht_ and
  // closes its spans while the lookup handles are still registered.
  router_.handle_crash();
  dht_.handle_crash();
  bitswap_.handle_crash();
  // The persistent store may lose some of its un-flushed tail and
  // replays the log; the in-memory store keeps everything (base-class
  // no-op). A crashed process's flush daemon dies with it — restart
  // re-arms it.
  flush_timer_.cancel();
  store_->handle_crash();
  if (pubsub_) pubsub_->handle_crash();
  if (name_resolver_) name_resolver_->handle_crash();
  address_book_ = AddressBook(address_book_.capacity());
  conn_manager_.clear_protected();
}

void IpfsNode::handle_restart(std::vector<dht::PeerRef> seeds,
                              std::function<void(bool)> done) {
  dht_.handle_restart();
  if (pubsub_) pubsub_->handle_restart();
  // Re-subscribing must follow the engine restart so the fresh
  // subscriptions announce to the re-added bootstrap candidates.
  bootstrap(std::move(seeds), std::move(done));
  if (name_resolver_) name_resolver_->handle_restart();
  if (config_.store.flush_interval_us > 0) arm_flush_timer();
}

void IpfsNode::reset_for_next_measurement() {
  conn_manager_.disconnect_all();
  // Forget cached addresses so peer discovery exercises the DHT again
  // (the paper's controlled nodes disconnect between iterations for the
  // same reason, Section 4.3).
  address_book_ = AddressBook(address_book_.capacity());
}

void IpfsNode::disconnect_from(sim::NodeId peer) {
  transport_.disconnect(peer);
}

void IpfsNode::forget_peer_addresses() {
  address_book_ = AddressBook(address_book_.capacity());
}

}  // namespace ipfs::node
