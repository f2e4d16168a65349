// Bitswap sessions with multi-path transfer (the optimization line of
// the paper's references [20, 21]: "Accelerating Content Routing with
// Bitswap: A Multi-Path File Transfer Protocol"), upgraded to the
// 1.2.0 want tiers.
//
// A session tracks a set of peers known (or believed) to hold an object
// and stripes WANT_BLOCK requests across them. It is the only DAG walk:
// Bitswap::fetch_dag runs a one-peer session without the probe. Peers
// are ranked by a score fed from three observations — HAVE-probe
// latency, delivered block throughput, and the DONT_HAVE ratio — so
// WANT_BLOCKs flow to the peers most likely to answer fast. An explicit
// DONT_HAVE re-routes the want to the next-best peer immediately (no
// block timeout burned), and blocks a peer fails to deliver are retried
// on the remaining peers, so a session survives individual provider
// failures.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <span>

#include "bitswap/bitswap.h"

namespace ipfs::bitswap {

struct SessionConfig {
  // Total WANT_BLOCKs in flight across the session.
  int window = 32;
  // WANT_HAVE-probe every peer for the root before the first WANT_BLOCK;
  // seeds the latency score and demotes peers that answer DONT_HAVE.
  bool probe_want_have = true;
  // A peer is dropped from the rotation after this many transport
  // failures (timeouts / resets). Honest DONT_HAVEs never kill a peer —
  // they only raise its score.
  std::uint64_t max_peer_failures = 3;
};

struct SessionPeerStats {
  std::uint64_t blocks = 0;
  std::uint64_t bytes = 0;
  std::uint64_t failures = 0;    // transport failures (timeout/reset)
  std::uint64_t dont_haves = 0;  // explicit DONT_HAVE answers
  std::uint64_t wants_sent = 0;  // WANT_BLOCKs dispatched to this peer
  double ewma_latency_ms = 0.0;  // block delivery, exponential moving avg
  double have_latency_ms = 0.0;  // WANT_HAVE probe round trip (0 = none)
};

struct SessionFetchStats : FetchStats {
  std::map<sim::NodeId, SessionPeerStats> per_peer;
  std::size_t retried_blocks = 0;
  std::size_t dont_have_reroutes = 0;
};

class Session {
 public:
  // The session shares its Bitswap's transport (clock, metrics). It must
  // outlive the requests it sends: a failed fetch reports while other
  // wants (and probes) may still be in flight.
  explicit Session(Bitswap& bitswap, SessionConfig config = {});

  // Adds a candidate provider. Duplicates are ignored.
  void add_peer(sim::NodeId peer);
  std::size_t peer_count() const { return peers_.size(); }

  // Fetches the DAG below `root`, striping block requests over the
  // session peers (up to SessionConfig::window in flight in total,
  // assigned to the best-scoring peers). Blocks already in the local
  // store are never wanted. Fails as soon as a block cannot be delivered
  // by ANY live session peer, without waiting for the other wants.
  // Reports exactly once.
  void fetch_dag(const multiformats::Cid& root,
                 std::function<void(SessionFetchStats)> done);

 private:
  friend class Bitswap;  // Bitswap::fetch_dag opens its own span

  struct PeerState {
    sim::NodeId node;
    int in_flight = 0;
    bool dead = false;       // exhausted: repeated transport failures
    bool answered_dont_have_root = false;  // probe said DONT_HAVE
    SessionPeerStats stats;
  };

  struct Fetch;
  // Runs the walk below `root` under `span`, which the entry point opened.
  void start(const multiformats::Cid& root, metrics::SpanId span,
             std::function<void(SessionFetchStats)> done);
  void pump(const std::shared_ptr<Fetch>& fetch);
  void start_wants(const std::shared_ptr<Fetch>& fetch);
  // Queues the children of a dag-pb block; false if it does not decode.
  bool expand(Fetch& fetch, const multiformats::Cid& cid,
              const blockstore::BlockData& data);
  PeerState* pick_peer(std::span<const sim::NodeId> exclude);
  // True while some live peer outside `tried` could still take a block.
  bool can_still_take(std::span<const sim::NodeId> tried) const;
  // Lower is better: expected wait for the next block from this peer.
  // Blends block latency (or the HAVE probe's until a block lands), a
  // DONT_HAVE-ratio penalty, and the queue already in flight there.
  double score(const PeerState& peer) const;

  Bitswap& bitswap_;
  transport::Transport& transport_;
  SessionConfig config_;
  std::vector<PeerState> peers_;
  // Session-wide average block service time (EWMA, ms). A HAVE probe
  // measures the wire, not the payload, so peers that have not delivered
  // a block yet are scored no better than this average — one slow first
  // block must not banish a peer the probes never load-tested.
  double avg_block_ms_ = 0.0;
};

}  // namespace ipfs::bitswap
