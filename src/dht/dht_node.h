// A Kademlia DHT participant (paper Sections 2.3, 3.1, 3.2).
//
// DHT *servers* store provider/value records and answer queries; DHT
// *clients* (NAT'ed peers) only issue queries. New peers start as clients
// and upgrade to servers when AutoNAT dial-backs show them reachable.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "dht/key.h"
#include "dht/lookup.h"
#include "dht/messages.h"
#include "dht/peer_directory.h"
#include "dht/record_store.h"
#include "dht/routing_table.h"
#include "transport/transport.h"

namespace ipfs::dht {

// AutoNAT upgrade threshold: "if more than three peers can connect...
// the new peer upgrades its participation to act as a server node".
constexpr int kAutonatThreshold = 3;
constexpr int kAutonatProbes = 5;

// Period of the sweep for expired provider records. A node sweeps only
// while its store holds records: storing an ADD_PROVIDER arms the sweep
// if none is queued, and a sweep that leaves the store empty does not
// re-arm, so a node that never stores a record queues no event for it.
// A store filled straight through record_store() (the benchmarks' seeded
// provider records) is swept only after its node stores an ADD_PROVIDER
// or restarts. RecordStore::providers still prunes expired records on
// read, and no seeded gateway-day record reaches its 24 h expiry inside
// the day.
constexpr sim::Duration kExpirySweepInterval = sim::hours(1);

class DhtNode {
 public:
  enum class Mode { kClient, kServer };

  // `transport` is the node's endpoint; it must outlive the node.
  // `shared_store`: optional external record store. Hydra boosters run
  // many DHT "heads" (distinct PeerIDs) over one common record database
  // so a record stored with any head is served by all of them.
  // `shared_directory`: optional external peer directory for the routing
  // table. A world hands one to all of its nodes so each peer's record
  // is held once; it must outlive the node. Without one the node owns
  // its own.
  DhtNode(transport::Transport& transport, multiformats::PeerId id,
          multiformats::AddressList addresses,
          RecordStore* shared_store = nullptr,
          PeerDirectory* shared_directory = nullptr);
  ~DhtNode();

  DhtNode(const DhtNode&) = delete;
  DhtNode& operator=(const DhtNode&) = delete;

  // Installs this node's request/message handlers directly on the network
  // fabric. Full IPFS nodes use an external dispatcher instead and route
  // into handle_request()/handle_message().
  void attach_to_network();

  // Dispatches a DHT request; returns false if the message type is not a
  // DHT message (so a multiplexer can try other protocols).
  bool handle_request(
      sim::NodeId from, const sim::MessagePtr& message,
      const std::function<void(sim::MessagePtr, std::size_t)>& respond);
  bool handle_message(sim::NodeId from, const sim::MessagePtr& message);

  // Joins the network: connects to `seeds`, runs AutoNAT, performs the
  // self-lookup that populates the routing table, then reports success.
  void bootstrap(std::vector<PeerRef> seeds, std::function<void(bool)> done);

  // --- Crash/restart (sim/faults.h) ---------------------------------------

  // Applies a process crash: in-flight lookups are aborted without their
  // callbacks firing, the routing table (soft state) is dropped, and the
  // maintenance timers stop. Stored records and the reprovide set survive
  // (they live in the datastore in the real stack). Call after
  // Network::set_online(node, false).
  void handle_crash();

  // Re-arms maintenance after a crash, running an immediate expiry sweep
  // first (under repeated crashes the hourly sweep may otherwise never
  // fire), then re-arming the sweep only if the store still holds
  // records. The caller re-joins the network via bootstrap().
  void handle_restart();

  // --- Publication (Section 3.1) -----------------------------------------

  struct ProvideResult {
    bool ok = false;
    sim::Duration walk = 0;       // DHT walk to find the k closest peers
    sim::Duration rpc_batch = 0;  // fire-and-forget ADD_PROVIDER batch
    sim::Duration total = 0;
    int stores_attempted = 0;
    int stores_sent = 0;  // dials that succeeded and got the record pushed
    LookupResult walk_result;
  };

  void provide(const Key& key, std::function<void(ProvideResult)> done);

  struct StoreBatchResult {
    sim::Duration elapsed = 0;
    int attempted = 0;
    int sent = 0;
  };

  // The fire-and-forget ADD_PROVIDER batch on its own: dials every target
  // at once and pushes the record where the dial succeeds; `elapsed` is
  // the slowest dial's. Exposed separately so the node layer can run its
  // connection manager between the walk and the batch (the sequence
  // Figure 9a/9b/9c decomposes).
  void store_provider_records(const Key& key, std::vector<PeerRef> targets,
                              std::function<void(StoreBatchResult)> done);

  // Registers `key` for republication every kRepublishInterval (12 h).
  void start_reproviding(const Key& key);
  void stop_reproviding(const Key& key);

  // --- Retrieval support (Section 3.2) ------------------------------------

  // `parent_span` parents the walk's trace span under the caller's phase
  // (e.g. a retrieval's provider_walk) — purely observational. The
  // returned handle identifies the walk for cancel_lookup() and is valid
  // until the callback fires; routing::ContentRouter holds it in race
  // mode to put down an out-raced walk.
  const Lookup* find_providers(const Key& key, Lookup::Callback done,
                               metrics::SpanId parent_span = 0);

  // Aborts the identified walk WITHOUT invoking its callback and cancels
  // its deadline timer (no dangling foreground events). No-op for
  // handles whose walk already finished or was never started here.
  void cancel_lookup(const Lookup* handle);

  // Invoked once per reprovided key each time the 12 h republish timer
  // fires. The node layer uses it to re-advertise to network indexers,
  // so indexer state (wiped by indexer crashes) is rebuilt on the same
  // cadence as DHT provider records.
  using RepublishHook = std::function<void(const Key&)>;
  void set_republish_hook(RepublishHook hook) {
    republish_hook_ = std::move(hook);
  }
  void find_peer(const multiformats::PeerId& peer,
                 std::function<void(std::optional<PeerRef>, LookupResult)> done,
                 metrics::SpanId parent_span = 0);
  void lookup_closest(const Key& key, Lookup::Callback done,
                      metrics::SpanId parent_span = 0);

  // --- Mutable records (IPNS substrate, Section 3.3) ----------------------

  void put_value(const Key& key, ValueRecord record,
                 std::function<void(bool ok, int stored_on)> done);
  // Every record the value walk gathered (up to kValueQuorum), in
  // discovery order. Callers resolve conflicts — e.g. ipns::resolve picks
  // the highest *valid* sequence, since validity needs the
  // application-level signature check.
  void get_values(const Key& key,
                  std::function<void(std::vector<ValueRecord>)> done);

  // --- Defense knobs (adversarial scenario pack) ---------------------------

  // Distinct provider records a GetProviders walk gathers before it stops
  // (LookupHost::provider_quorum). Default 1 = classic first-record
  // termination.
  void set_provider_quorum(std::size_t quorum) { provider_quorum_ = quorum; }
  std::size_t provider_quorum() const { return provider_quorum_; }

  // Per-bucket /16-prefix diversity cap (RoutingTable constructor knob).
  // Applies to the live table and to every table rebuilt after a crash.
  // 0 disables the check.
  void set_bucket_diversity_cap(std::size_t cap);
  std::size_t bucket_diversity_cap() const { return bucket_diversity_cap_; }

  // --- Introspection -------------------------------------------------------

  Mode mode() const { return mode_; }
  void force_mode(Mode mode);
  // Pins the mode across AutoNAT: force_mode() sets the current mode but
  // a later bootstrap's dial-back verdict overwrites it (> 3 reachable
  // probes required). A pinned mode survives the verdict — the socket
  // daemon uses this, since a small localhost cluster can never muster
  // enough probes even though every endpoint is dialable by construction.
  void fix_mode(Mode mode);
  const PeerRef& self() const { return self_; }
  RoutingTable& routing_table() { return routing_table_; }
  const RoutingTable& routing_table() const { return routing_table_; }
  RecordStore& record_store() { return *records_; }
  sim::NodeId node() const { return self_.node; }
  transport::Transport& transport() { return transport_; }

 private:
  const Lookup* start_lookup(LookupType type, const Key& target,
                             std::vector<PeerRef> seeds, Lookup::Callback cb,
                             std::optional<multiformats::PeerId> target_peer =
                                 std::nullopt,
                             metrics::SpanId parent_span = 0);
  LookupHost make_lookup_host();
  void run_autonat(std::vector<PeerRef> probes, std::function<void()> done);
  void schedule_republish();
  void schedule_expiry_sweep();
  void answer_closer_peers(const Key& target, std::vector<PeerRef>& out) const;

  transport::Transport& transport_;
  PeerRef self_;
  Mode mode_ = Mode::kClient;
  std::optional<Mode> fixed_mode_;
  std::unique_ptr<PeerDirectory> own_directory_;  // null when shared
  RoutingTable routing_table_;
  RecordStore own_records_;
  RecordStore* records_;  // &own_records_ unless a shared store is used
  std::unordered_set<Key, KeyHasher> reprovide_keys_;
  RepublishHook republish_hook_;
  transport::Timer republish_timer_;
  transport::Timer expiry_timer_;
  std::size_t provider_quorum_ = 1;
  std::size_t bucket_diversity_cap_ = 0;
  // Keeps in-flight lookups alive.
  std::unordered_map<const Lookup*, std::shared_ptr<Lookup>> active_lookups_;
};

}  // namespace ipfs::dht
