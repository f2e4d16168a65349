// The full IPFS node: block store + Merkle-DAG + Kademlia DHT + Bitswap,
// with the address book and connection manager on top. Implements the
// paper's publication pipeline (Section 3.1, steps 1-3 of Figure 3) and
// the four-phase retrieval pipeline (Section 3.2, steps 4-6), capturing
// per-phase timing traces for the Figure 9/10 experiments.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "bitswap/bitswap.h"
#include "blockstore/blockstore.h"
#include "blockstore/store_config.h"
#include "crypto/ed25519.h"
#include "dht/dht_node.h"
#include "ipns/ipns_pubsub.h"
#include "merkledag/merkledag.h"
#include "node/address_book.h"
#include "node/connection_manager.h"
#include "pubsub/pubsub.h"
#include "routing/router.h"

namespace ipfs::node {

using multiformats::Cid;

struct IpfsNodeConfig {
  sim::NodeConfig net;
  ConnManagerConfig conn_manager;
  std::uint64_t identity_seed = 0;
  // Become a temporary provider after a successful retrieval
  // (Section 3.1: "any peer that later retrieves the data becomes a
  // temporary content provider themselves").
  bool provide_after_fetch = true;
  // Skip the remainder of the Bitswap window once every connected peer
  // answered DONT_HAVE (the optimization discussed in Section 6.4).
  bool bitswap_early_exit = false;
  // Start the router's provider lookup together with the Bitswap window
  // instead of after it misses — the paper's proposed future-work
  // optimization ("running DHT lookups in parallel to Bitswap could be
  // superior, by trading additional network requests for faster
  // retrieval times").
  bool parallel_dht_lookup = false;
  // GossipSub engine + IPNS-over-pubsub fast path (Section 2.6; off by
  // default, mirroring go-ipfs's --enable-namesys-pubsub experiment).
  bool enable_pubsub = false;
  pubsub::PubsubConfig pubsub;
  // Content-routing selection (docs/ROUTING.md): the DHT walk (default),
  // delegated network indexers, or a first-success race of both. With
  // indexers configured, provide/reprovide additionally pushes
  // advertisements to them.
  routing::RoutingConfig routing;
  // Eclipse defenses (docs/ADVERSARY.md). provider_quorum > 1 makes the
  // GetProviders walk gather that many distinct records before stopping;
  // bucket_diversity_cap > 0 bounds how many routing-table entries per
  // bucket may share a /16 IPv4 prefix. The defaults are the undefended
  // protocol.
  std::size_t provider_quorum = 1;
  std::size_t bucket_diversity_cap = 0;
  // Block store backend (docs/BLOCKSTORE.md). Defaults to the in-memory
  // store; kPersistent puts the node's blocks in a log-structured
  // store (on real files when `store.directory` is set, e.g. ipfsd
  // --store-dir) that survives handle_crash().
  blockstore::StoreConfig store;
};

// Timing decomposition of one publication (Figure 9a-c).
struct PublishTrace {
  bool ok = false;
  Cid cid;
  sim::Duration walk = 0;       // DHT walk to the 20 closest peers (9b)
  sim::Duration rpc_batch = 0;  // provider-record store batch (9c)
  sim::Duration total = 0;      // (9a)
  int provider_records_sent = 0;
};

// Timing decomposition of one retrieval (Figures 9d-f and 10).
struct RetrievalTrace {
  bool ok = false;
  Cid cid;
  bool local_hit = false;
  bool bitswap_hit = false;
  bool used_peer_walk = false;  // address book missed; second walk needed
  // Which routing path resolved the provider (kNone when the content
  // came from the local store or an opportunistic Bitswap hit, or when
  // provider discovery failed).
  routing::Source routing_source = routing::Source::kNone;

  sim::Duration bitswap_discovery = 0;  // opportunistic phase (<= 1 s)
  sim::Duration provider_walk = 0;      // DHT walk #1: provider record
  sim::Duration peer_walk = 0;          // DHT walk #2: peer record
  sim::Duration dial = 0;               // transport handshake (TCP-equivalent)
  sim::Duration negotiate = 0;          // security/mux (TLS-equivalent)
  sim::Duration fetch = 0;              // Bitswap content exchange (9f)
  sim::Duration total = 0;              // (9d)
  std::uint64_t bytes = 0;
  // The peer the content was fetched from (for connection management).
  sim::NodeId provider_node = sim::kInvalidNode;
  // Providers retried after the first record's fetch failed (populated
  // only when the walk returned more than one record, e.g. under a
  // provider quorum).
  int provider_fallbacks = 0;

  sim::Duration dht_walks() const { return provider_walk + peer_walk; }  // 9e
  sim::Duration discover() const {
    return bitswap_discovery + provider_walk + peer_walk;
  }

  // Retrieval stretch vs. an HTTPS GET of the same object (Equation 2).
  double stretch() const;
  // Stretch with the initial Bitswap window excluded (Figure 10b).
  double stretch_without_bitswap() const;
};

class IpfsNode {
 public:
  // Primary constructor: runs over any transport backend (simulated or
  // real sockets — the daemon in examples/ipfsd.cpp uses the latter).
  IpfsNode(transport::Transport& transport, const IpfsNodeConfig& config);
  // Simulator constructor: adds a fresh node (config.net) to the fabric
  // and owns its SimTransport, the one endpoint every engine on the node
  // shares. No other class makes its own endpoint; Gateway, the fuzz
  // harness and the benchmark build whole simulated nodes this way.
  IpfsNode(sim::Network& network, const IpfsNodeConfig& config);
  ~IpfsNode();

  // Joins the network (Section 2.2-2.3): dials the bootstrap peers, runs
  // AutoNAT, and populates the routing table via a self-lookup.
  void bootstrap(std::vector<dht::PeerRef> seeds,
                 std::function<void(bool)> done);

  // Imports content locally (step 1 of Figure 3): chunk, hash, build the
  // Merkle DAG. No network activity.
  merkledag::ImportResult add(std::span<const std::uint8_t> data);

  // Announces a locally stored object (steps 2-3): walk to the 20 closest
  // peers, then fire-and-forget provider records. Registers the CID for
  // 12 h republication. `max_records` caps how many of the closest peers
  // receive the record (k = 20 by default; the replication ablation bench
  // sweeps this).
  void provide(const Cid& cid, std::function<void(PublishTrace)> done,
               std::size_t max_records = dht::kReplication);

  // add() + provide() in one call.
  void publish(std::span<const std::uint8_t> data,
               std::function<void(PublishTrace)> done);

  // The four-phase retrieval (steps 4-6): opportunistic Bitswap, provider
  // discovery, peer discovery, peer routing, content exchange. Provider
  // discovery starts after the Bitswap window misses, or together with
  // it under config.parallel_dht_lookup. `done` fires exactly once.
  void retrieve(const Cid& cid, std::function<void(RetrievalTrace)> done);

  // --- IPNS (Section 3.3 + the Section 2.6 pubsub fast path) --------------

  // Publishes a signed IPNS record mapping this node's PeerID to
  // `target`. With pubsub enabled the record is additionally broadcast to
  // the name's topic mesh; `done` always reports the DHT outcome.
  void publish_name(const Cid& target, std::uint64_t sequence,
                    std::function<void(bool ok, int replicas)> done);

  // Resolves `name`: pubsub cache first (when enabled), then the quorum
  // DHT walk. Picks the highest valid sequence on either path.
  void resolve_name(const multiformats::PeerId& name,
                    std::function<void(std::optional<Cid>)> done);

  // Subscribes to `name`'s record topic so future resolves answer from
  // the local cache. No-op without pubsub.
  void follow_name(const multiformats::PeerId& name);

  // --- Crash/restart (sim/faults.h) ---------------------------------------

  // Applies a process crash: every layer drops its soft state (in-flight
  // lookups and discoveries, routing table, address book, connection
  // protections) while the pinned blockstore survives on disk. Call from
  // a FaultPlan crash listener, after Network::set_online(node, false)
  // has muted the node's network callbacks.
  void handle_crash();

  // Restart after a crash: re-arms the DHT maintenance timers and
  // re-joins the network via bootstrap().
  void handle_restart(std::vector<dht::PeerRef> seeds,
                      std::function<void(bool)> done);

  // Experiment-harness helper (Section 4.3): drop every connection and
  // forget cached peer addresses so the next retrieval exercises the DHT.
  void reset_for_next_measurement();

  // Softer variants used between measurement iterations: the paper's
  // nodes disconnect from each other (so Bitswap cannot resolve the next
  // object) but keep their ambient DHT connections.
  void disconnect_from(sim::NodeId peer);
  void forget_peer_addresses();

  dht::DhtNode& dht() { return dht_; }
  bitswap::Bitswap& bitswap() { return bitswap_; }
  blockstore::BlockStore& store() { return *store_; }
  AddressBook& address_book() { return address_book_; }
  ConnectionManager& connection_manager() { return conn_manager_; }
  pubsub::Pubsub* pubsub() { return pubsub_.get(); }
  ipns::PubsubResolver* name_resolver() { return name_resolver_.get(); }

  transport::Transport& transport() { return transport_; }
  dht::PeerRef self() const { return dht_.self(); }
  const crypto::Ed25519KeyPair& keypair() const { return keypair_; }
  sim::NodeId node() const { return node_; }

  // Deterministic identity derivation, shared with out-of-process tooling
  // (the ipfsd daemon derives every cluster member's PeerID from its
  // index with this).
  static crypto::Ed25519KeyPair derive_keypair(std::uint64_t seed);

 private:
  // Bridge for the simulator constructor: the owned backend is
  // parked in owned_transport_ after the primary constructor ran against
  // the reference.
  IpfsNode(std::unique_ptr<transport::Transport> transport,
           const IpfsNodeConfig& config);

  // Per-retrieval state. The timing fields of the trace are derived from
  // the metrics layer's spans (end_span returns the duration), and the
  // root span id travels with the retrieval — a member timestamp would be
  // corrupted by concurrent retrievals (the gateway serves many at once).
  struct RetrievalCtx {
    std::function<void(RetrievalTrace)> done;  // called exactly once
    RetrievalTrace trace;
    metrics::SpanId span = 0;       // retrieve.total
    metrics::SpanId walk_span = 0;  // retrieve.provider_walk
    // A phase found a source and the fetch owns the retrieval; the other
    // phase's late result is dropped.
    bool fetching = false;
    // Phases that found nothing; when both have, the retrieval fails.
    bool bitswap_missed = false;
    bool walk_failed = false;
    // Remaining provider records from the routing result, dialed in
    // discovery order when the current provider's fetch fails. Empty for
    // local/Bitswap hits.
    std::vector<dht::PeerRef> providers;
    std::size_t next_provider = 0;
  };

  void finish(const std::shared_ptr<RetrievalCtx>& ctx);
  // Phase 2: the router's provider lookup, under ctx->walk_span.
  void find_providers(const std::shared_ptr<RetrievalCtx>& ctx);
  void finish_retrieval(std::shared_ptr<RetrievalCtx> ctx,
                        const dht::PeerRef& provider);
  // Advances to the next provider record if one remains (dial or fetch
  // failed on the current one); otherwise delivers the failed trace.
  void fail_or_fallback(std::shared_ptr<RetrievalCtx> ctx);
  void fetch_from(std::shared_ptr<RetrievalCtx> ctx, sim::NodeId peer);

  // Single accounting point for a resolved (or failed) provider lookup:
  // stamps the trace, bumps routing.source.* / routing.latency.*, and
  // emits the retrieve.routing_source instant parented under the
  // retrieval's root span (so the winning source is derivable from the
  // JSONL trace alone).
  void record_routing_outcome(const std::shared_ptr<RetrievalCtx>& ctx,
                              routing::Source source, sim::Duration elapsed);

  // Declared first so an owned backend outlives every member that holds
  // the transport_ reference; null when the transport is external.
  std::unique_ptr<transport::Transport> owned_transport_;
  transport::Transport& transport_;
  sim::NodeId node_;
  IpfsNodeConfig config_;
  crypto::Ed25519KeyPair keypair_;
  // Pointer, not value: the backend is chosen at runtime (store_config).
  std::unique_ptr<blockstore::BlockStore> store_;
  dht::DhtNode dht_;
  // References dht_, so member order is load-bearing.
  routing::ContentRouter router_;
  bitswap::Bitswap bitswap_;
  AddressBook address_book_;
  ConnectionManager conn_manager_;
  // Present only with config.enable_pubsub; the resolver references both
  // dht_ and *pubsub_, so member order is load-bearing.
  std::unique_ptr<pubsub::Pubsub> pubsub_;
  std::unique_ptr<ipns::PubsubResolver> name_resolver_;

  // Periodic flush cadence (StoreConfig::flush_interval_us).
  void arm_flush_timer();
  transport::Timer flush_timer_;
};

}  // namespace ipfs::node
