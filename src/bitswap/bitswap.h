// Bitswap (paper Section 3.2, "Content Exchange"): a chunk exchange
// protocol, here at the 1.2.0 protocol level. Requests announce
// interest in CIDs via wantlists: WANT_HAVE probes who holds a block,
// HAVE/DONT_HAVE answer, WANT_BLOCK pulls the block itself. A
// WANT_BLOCK may ask for an explicit DONT_HAVE reply instead of
// silence, which is what lets sessions (session.h) re-route a want to
// another provider immediately instead of burning the block timeout.
//
// Bitswap is also IPFS's opportunistic discovery mechanism: before a DHT
// walk, a requester broadcasts WANT_HAVE to every *connected* peer and
// waits up to 1 s (kDiscoveryTimeout) for a HAVE.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>

#include "blockstore/blockstore.h"
#include "multiformats/cid.h"
#include "transport/transport.h"

namespace ipfs::bitswap {

using blockstore::Block;
using blockstore::BlockData;
using multiformats::Cid;

// Discovery falls back to the DHT after this timeout (Section 3.2).
constexpr sim::Duration kDiscoveryTimeout = sim::seconds(1);
// Per-block transfer timeout inside a session.
constexpr sim::Duration kBlockTimeout = sim::seconds(30);

struct WantHaveRequest : sim::Message {
  Cid cid;
  sim::MessageKind kind() const override {
    return sim::MessageKind::kWantHaveRequest;
  }
};

struct HaveResponse : sim::Message {
  bool have = false;  // HAVE or DONT_HAVE
  sim::MessageKind kind() const override {
    return sim::MessageKind::kHaveResponse;
  }
};

struct WantBlockRequest : sim::Message {
  Cid cid;
  // Bitswap 1.2.0: ask the responder to answer a miss with an explicit
  // DONT_HAVE (dont_have flag on the BlockResponse) instead of an empty
  // reply, so the requester can re-route without waiting out a timeout.
  bool send_dont_have = false;
  sim::MessageKind kind() const override {
    return sim::MessageKind::kWantBlockRequest;
  }
};

struct BlockResponse : sim::Message {
  Cid cid;
  // Shared payload (nullptr on a miss): the responder hands out the
  // blockstore's allocation, the wire layer copies exactly once, and an
  // in-process sim delivery copies never.
  BlockData data;
  bool dont_have = false;  // explicit miss (send_dont_have was set)
  sim::MessageKind kind() const override {
    return sim::MessageKind::kBlockResponse;
  }
};

// Per-peer accounting of exchanged bytes (the Bitswap "ledger").
struct Ledger {
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t blocks_sent = 0;
  std::uint64_t blocks_received = 0;
};

struct FetchStats {
  bool ok = false;
  sim::Duration elapsed = 0;
  std::size_t blocks = 0;
  std::uint64_t bytes = 0;
};

// Outcome of one fetch_block: `data` set on success; `dont_have` set
// when the peer answered an explicit DONT_HAVE (so the caller can tell
// an honest miss from a transport failure/timeout).
struct BlockResult {
  BlockData data;
  bool dont_have = false;
  explicit operator bool() const { return data != nullptr; }
};

class Bitswap {
 public:
  // `transport` is the node's endpoint; it must outlive the engine.
  Bitswap(transport::Transport& transport, blockstore::BlockStore& store);

  // Protocol dispatch; returns false for non-Bitswap messages.
  bool handle_request(
      sim::NodeId from, const sim::MessagePtr& message,
      const std::function<void(sim::MessagePtr, std::size_t)>& respond);

  // Answers a WANT_HAVE or WANT_BLOCK as a node holding nothing would:
  // DONT_HAVE, or an empty block (DONT_HAVE when asked for one). Touches
  // no ledger and no counter, so peers without an engine (World's
  // population) answer with it too. Returns false for other messages.
  static bool answer_holding_nothing(
      const sim::MessagePtr& message,
      const std::function<void(sim::MessagePtr, std::size_t)>& respond);

  // Opportunistic discovery: WANT_HAVE to all connected peers; reports the
  // first peer answering HAVE, or nullopt after kDiscoveryTimeout. Fires
  // exactly once. With no connected peers it reports failure immediately.
  //
  // By default the full timeout is always paid on a miss, matching go-ipfs
  // (and footnote 4 of the paper: every DHT-resolved retrieval carries the
  // 1 s Bitswap delay). `early_exit` lets a miss complete as soon as all
  // connected peers answered DONT_HAVE — the optimization the paper's
  // Section 6.4 discussion contemplates.
  void discover(const Cid& cid,
                std::function<void(std::optional<sim::NodeId>)> done,
                bool early_exit = false);

  // WANT_HAVE probe of a single peer: reports (have, answered). Sessions
  // use it to rank providers before committing WANT_BLOCKs.
  void probe_have(sim::NodeId peer, const Cid& cid,
                  std::function<void(bool have, bool answered)> done);

  // Pulls one block from `peer` (WANT_BLOCK, send_dont_have set).
  // Verified against the CID and stored locally on success.
  void fetch_block(sim::NodeId peer, const Cid& cid,
                   std::function<void(BlockResult)> done);

  // Fetches the whole DAG below `root` from `peer`: a one-peer Session
  // (session.h) without the WANT_HAVE probe, so up to kFetchWindow
  // WANT_BLOCKs are in flight and per-block round trips hide behind the
  // transfer. Traced as `bitswap.fetch_dag`.
  void fetch_dag(sim::NodeId peer, const Cid& root,
                 std::function<void(FetchStats)> done);

  // WANT_BLOCKs in flight to one peer.
  static constexpr int kFetchWindow = 8;

  // Applies a process crash (sim/faults.h): in-flight discoveries are
  // abandoned without their callbacks firing (their timeout timers are
  // requester-owned, so the network's epoch muting alone cannot stop
  // them). The ledgers survive — accounting lives in the datastore, and
  // the fuzz harness checks conservation against them across crashes.
  void handle_crash();

  const Ledger& ledger_for(sim::NodeId peer);
  const std::unordered_map<sim::NodeId, Ledger>& ledgers() const {
    return ledgers_;
  }
  blockstore::BlockStore& store() { return store_; }
  transport::Transport& transport() { return transport_; }
  sim::NodeId self() const { return node_; }

 private:
  struct Discovery;

  transport::Transport& transport_;
  sim::NodeId node_;
  blockstore::BlockStore& store_;
  std::unordered_map<sim::NodeId, Ledger> ledgers_;
  // In-flight discover() calls, so handle_crash() can abandon them.
  std::unordered_map<std::uint64_t, std::shared_ptr<Discovery>> discoveries_;
  std::uint64_t next_discovery_id_ = 1;
};

}  // namespace ipfs::bitswap
