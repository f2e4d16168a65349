// Multi-round iterative DHT lookup — the "DHT walk" of paper Section 3.2.
//
// Queries proceed with concurrency alpha = 3 towards the target key. Each
// step dials the peer (paying handshake or dial-timeout cost), issues the
// RPC, and merges returned closer-peers into the candidate set. FindNode
// walks terminate when the k closest discovered peers have all answered
// (publication needs the full closest set); provider walks terminate as
// soon as a record is found (retrieval needs just one). Value walks
// collect a quorum of records (go-ipfs get-value semantics): divergent
// replicas are expected — a stale node may hold an old IPNS sequence — so
// the walk gathers up to kValueQuorum records (or converges like FindNode)
// and the caller picks the highest valid sequence.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "dht/key.h"
#include "dht/messages.h"
#include "transport/transport.h"

namespace ipfs::dht {

constexpr int kAlpha = 3;           // lookup concurrency (Section 3.2)
constexpr std::size_t kReplication = 20;  // k (Section 3.1)
constexpr sim::Duration kRpcTimeout = sim::seconds(10);
constexpr sim::Duration kLookupDeadline = sim::minutes(3);
// Records a value walk gathers before terminating (go-ipfs's get-value
// quorum). Small swarms converge earlier via the FindNode criterion.
constexpr std::size_t kValueQuorum = 16;

enum class LookupType { kFindNode, kGetProviders, kGetValue };

struct LookupResult {
  bool completed = false;  // false when the deadline cut the walk short
  std::vector<PeerRef> closest;            // peers that answered, closest first
  std::vector<ProviderRecord> providers;   // kGetProviders
  std::vector<ValueRecord> values;         // kGetValue: every record gathered
  std::optional<PeerRef> target_peer;      // kFindNode early match
  sim::Duration elapsed = 0;
  int rpcs_sent = 0;
  int rpcs_failed = 0;
  int dials_failed = 0;
};

// Hooks back into the owning DHT node.
struct LookupHost {
  transport::Transport* transport = nullptr;
  // Requester identity stamped onto outgoing RPCs (see LookupRequestBase).
  PeerRef self_ref;
  bool server_mode = false;
  // Distinct provider records a kGetProviders walk gathers before
  // terminating. 1 is classic Kademlia (stop at the first record); raising
  // it is the eclipse defense: a single captured resolver serving a
  // poisoned record cannot end the walk, so honest record holders further
  // out still get queried. Walks that cannot reach the quorum converge
  // via the FindNode criterion, like value walks.
  std::size_t provider_quorum = 1;
  // Enclosing trace span (e.g. a retrieval's provider_walk phase); the
  // walk's dht.lookup.* span is parented under it when non-zero.
  metrics::SpanId parent_span = 0;
  // Routing-table feedback.
  std::function<void(const PeerRef&)> on_peer_responded;
  std::function<void(const PeerRef&)> on_peer_failed;
};

class Lookup : public std::enable_shared_from_this<Lookup> {
 public:
  using Callback = std::function<void(LookupResult)>;

  // `target_peer` enables early termination when looking up a specific
  // PeerID (peer discovery, Section 3.2).
  static std::shared_ptr<Lookup> start(
      LookupHost host, LookupType type, Key target,
      std::vector<PeerRef> seeds, Callback cb,
      std::optional<multiformats::PeerId> target_peer = std::nullopt);

  // Abandons the walk WITHOUT invoking the callback: the requester
  // crashed and nobody is waiting for the result. Needed because the
  // deadline timer is owned by the lookup, not the network fabric, so a
  // crashed node's walk would otherwise fire its callback at the 3 min
  // deadline.
  void abort();

 private:
  Lookup(LookupHost host, LookupType type, Key target, Callback cb,
         std::optional<multiformats::PeerId> target_peer);

  enum class CandidateState { kUnqueried, kInFlight, kResponded, kFailed };

  struct Candidate {
    PeerRef peer;
    CandidateState state = CandidateState::kUnqueried;
  };

  // A candidate's XOR distance to the target names it: for a fixed
  // target, each distance belongs to exactly one key.
  using Distance = std::array<std::uint8_t, 32>;

  void add_candidate(const PeerRef& peer);
  void pump();                       // launch queries up to alpha
  void query(const Distance& distance);
  void on_dial_result(const Distance& distance, bool ok);
  void on_response(const Distance& distance, sim::RpcStatus status,
                   const sim::MessagePtr& message);
  bool should_terminate() const;
  void finish(bool completed);

  LookupHost host_;
  LookupType type_;
  Key target_;
  Callback cb_;
  std::optional<multiformats::PeerId> target_peer_;

  // Candidates keyed by XOR distance to the target (closest first).
  std::map<Distance, Candidate> candidates_;

  LookupResult result_;
  sim::Time started_at_ = 0;
  transport::Timer deadline_timer_;
  metrics::SpanId span_ = 0;  // dht.lookup.<type> trace span
  int in_flight_ = 0;
  bool finished_ = false;
};

}  // namespace ipfs::dht
