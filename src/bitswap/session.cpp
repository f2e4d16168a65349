#include "bitswap/session.h"

#include <algorithm>
#include <set>

#include "merkledag/merkledag.h"

namespace ipfs::bitswap {

Session::Session(Bitswap& bitswap, SessionConfig config)
    : bitswap_(bitswap), transport_(bitswap.transport()), config_(config) {}

void Session::add_peer(sim::NodeId peer) {
  for (const auto& existing : peers_)
    if (existing.node == peer) return;
  PeerState state;
  state.node = peer;
  peers_.push_back(state);
}

// One block in flight, with the peers already tried for it.
struct Session::Fetch {
  multiformats::Cid root;
  std::vector<multiformats::Cid> pending;
  // Per-CID list of peers that already failed it (string-keyed).
  std::map<std::string, std::vector<sim::NodeId>> failed_on;
  // Every CID ever enqueued (pending, in flight, or already landed). A
  // DAG with shared links yields the same child from several parents;
  // without this set both copies would be dispatched before either
  // lands, double-fetching the block and double-counting stats.
  std::set<std::string> enqueued;
  int in_flight = 0;
  std::size_t probes_outstanding = 0;
  bool finished = false;
  bool failed = false;
  SessionFetchStats stats;
  sim::Time started = 0;
  metrics::SpanId span = 0;  // bitswap.session_fetch trace span
  std::function<void(SessionFetchStats)> done;

  static std::string key_of(const multiformats::Cid& cid) {
    const auto bytes = cid.encode();
    return std::string(bytes.begin(), bytes.end());
  }

  // True when the CID was not seen before (and is now marked seen).
  bool mark_new(const multiformats::Cid& cid) {
    return enqueued.insert(key_of(cid)).second;
  }
};

double Session::score(const PeerState& peer) const {
  // Until a block lands, the HAVE probe's round trip is the only latency
  // signal; an unprobed, untried peer scores 0 and gets tried first.
  double expected = peer.stats.ewma_latency_ms > 0.0
                        ? peer.stats.ewma_latency_ms
                        : peer.stats.have_latency_ms;
  // Throughput prior: a probe round trip says nothing about upload
  // bandwidth, so a peer with no deliveries is scored no better than the
  // session-wide average block time.
  if (peer.stats.blocks == 0 && avg_block_ms_ > 0.0)
    expected = std::max(expected, avg_block_ms_);
  const double answers =
      static_cast<double>(peer.stats.blocks + peer.stats.dont_haves);
  const double dont_have_ratio =
      answers > 0.0 ? static_cast<double>(peer.stats.dont_haves) / answers
                    : 0.0;
  // A peer whose probe already said DONT_HAVE for the root starts behind
  // every peer that said HAVE, but stays available as a fallback.
  const double probe_penalty = peer.answered_dont_have_root ? 1000.0 : 0.0;
  // Queue awareness: the peer's upload serializes its in-flight wants,
  // so the expected wait grows with the queue length.
  return (expected + probe_penalty) * (1.0 + 2.0 * dont_have_ratio) *
         static_cast<double>(peer.in_flight + 1);
}

Session::PeerState* Session::pick_peer(
    const std::vector<sim::NodeId>& exclude) {
  PeerState* best = nullptr;
  for (auto& peer : peers_) {
    if (peer.dead) continue;
    // Cap per peer, so one fast provider cannot absorb the whole window
    // (parallelism across providers is the point of a session).
    if (peer.in_flight >= Bitswap::kFetchWindow) continue;
    if (std::find(exclude.begin(), exclude.end(), peer.node) !=
        exclude.end())
      continue;
    if (best == nullptr) {
      best = &peer;
      continue;
    }
    // Best score first; break ties by load, then node id (determinism).
    const double peer_score = score(peer);
    const double best_score = score(*best);
    if (peer_score < best_score ||
        (peer_score == best_score &&
         (peer.in_flight < best->in_flight ||
          (peer.in_flight == best->in_flight && peer.node < best->node)))) {
      best = &peer;
    }
  }
  return best;
}

void Session::fetch_dag(const multiformats::Cid& root,
                        std::function<void(SessionFetchStats)> done) {
  auto fetch = std::make_shared<Fetch>();
  fetch->root = root;
  fetch->started = transport_.now();
  fetch->mark_new(root);
  fetch->pending.push_back(root);
  fetch->done = std::move(done);
  fetch->span = transport_.metrics().begin_span(
      "bitswap.session_fetch", bitswap_.self(), root.to_string());
  if (peers_.empty()) {
    fetch->stats.ok = false;
    transport_.metrics().end_span(fetch->span, false);
    fetch->done(fetch->stats);
    return;
  }
  if (!config_.probe_want_have) {
    pump(std::move(fetch));
    return;
  }

  // Probe phase: WANT_HAVE the root at every peer in parallel. The
  // probes seed have_latency_ms (the initial ranking) and demote peers
  // without the content. WANT_BLOCK dispatch starts as soon as the
  // first probe answers — the slowest peer must not gate the transfer.
  fetch->probes_outstanding = peers_.size();
  for (auto& peer : peers_) {
    const sim::NodeId node = peer.node;
    const sim::Time sent_at = transport_.now();
    bitswap_.probe_have(
        node, root, [this, fetch, node, sent_at](bool have, bool answered) {
          for (auto& state : peers_) {
            if (state.node != node) continue;
            if (answered) {
              state.stats.have_latency_ms =
                  sim::to_millis(transport_.now() - sent_at);
              if (!have) {
                state.answered_dont_have_root = true;
                ++state.stats.dont_haves;
              }
            }
          }
          if (fetch->probes_outstanding > 0) --fetch->probes_outstanding;
          if (!fetch->finished) pump(fetch);
        });
  }
  pump(std::move(fetch));
}

void Session::pump(std::shared_ptr<Fetch> fetch) {
  if (fetch->finished) return;

  start_wants(fetch);

  // Termination / failure checks (after dispatch, so a pick_peer dead
  // end with nothing in flight fails the fetch rather than stalling).
  // Outstanding probes never block completion: they only feed scores.
  if ((fetch->failed || fetch->pending.empty()) && fetch->in_flight == 0) {
    fetch->finished = true;
    fetch->stats.ok = !fetch->failed && fetch->pending.empty();
    fetch->stats.elapsed = transport_.now() - fetch->started;
    for (const auto& peer : peers_)
      fetch->stats.per_peer[peer.node] = peer.stats;
    transport_.metrics().end_span(fetch->span, fetch->stats.ok,
                                fetch->stats.bytes);
    fetch->done(fetch->stats);
  }
}

void Session::start_wants(std::shared_ptr<Fetch> fetch) {
  while (!fetch->pending.empty() && fetch->in_flight < config_.window &&
         !fetch->failed) {
    const multiformats::Cid next = fetch->pending.back();

    // Local hits (deduplicated chunks) resolve without network traffic.
    if (const auto local = bitswap_.store().get(next)) {
      fetch->pending.pop_back();
      if (next.content_codec() == multiformats::Multicodec::kDagPb) {
        if (const auto dag_node = merkledag::DagNode::decode(*local)) {
          for (const auto& link : dag_node->links) {
            if (fetch->mark_new(link.cid))
              fetch->pending.push_back(link.cid);
            else
              transport_.metrics()
                  .counter("bitswap.duplicate_wants_suppressed")
                  .inc();
          }
        }
      }
      continue;
    }

    const auto& tried = fetch->failed_on[Fetch::key_of(next)];
    PeerState* peer = pick_peer(tried);
    if (peer == nullptr) {
      if (fetch->in_flight > 0) break;  // retry when a slot frees up
      // Every session peer failed this block.
      fetch->failed = true;
      break;
    }
    fetch->pending.pop_back();
    ++fetch->in_flight;
    ++peer->in_flight;
    ++peer->stats.wants_sent;
    const sim::NodeId node = peer->node;
    const sim::Time sent_at = transport_.now();

    bitswap_.fetch_block(
        node, next,
        [this, fetch, next, node, sent_at](BlockResult block) {
          --fetch->in_flight;
          for (auto& peer : peers_) {
            if (peer.node != node) continue;
            --peer.in_flight;
            const double latency_ms = sim::to_millis(
                transport_.now() - sent_at);
            if (block) {
              ++peer.stats.blocks;
              peer.stats.bytes += block.data->size();
              peer.stats.ewma_latency_ms =
                  peer.stats.ewma_latency_ms == 0.0
                      ? latency_ms
                      : 0.7 * peer.stats.ewma_latency_ms + 0.3 * latency_ms;
              avg_block_ms_ = avg_block_ms_ == 0.0
                                  ? latency_ms
                                  : 0.7 * avg_block_ms_ + 0.3 * latency_ms;
            } else if (block.dont_have) {
              // An honest miss: penalize the score, not the liveness.
              ++peer.stats.dont_haves;
            } else {
              ++peer.stats.failures;
              if (peer.stats.failures >= config_.max_peer_failures)
                peer.dead = true;
            }
          }
          if (fetch->finished) return;

          if (!block) {
            // Requeue on the remaining peers (already in `enqueued`; a
            // retry is a re-dispatch of the same want, not a duplicate).
            fetch->failed_on[Fetch::key_of(next)].push_back(node);
            fetch->pending.push_back(next);
            if (block.dont_have) {
              ++fetch->stats.dont_have_reroutes;
              transport_.metrics()
                  .counter("bitswap.session_dont_have_reroutes")
                  .inc();
            } else {
              ++fetch->stats.retried_blocks;
              transport_.metrics().counter("bitswap.session_retries").inc();
            }
          } else {
            ++fetch->stats.blocks;
            fetch->stats.bytes += block.data->size();
            if (next.content_codec() == multiformats::Multicodec::kDagPb) {
              if (const auto dag_node =
                      merkledag::DagNode::decode(*block.data)) {
                for (const auto& link : dag_node->links) {
                  if (fetch->mark_new(link.cid))
                    fetch->pending.push_back(link.cid);
                  else
                    transport_.metrics()
                        .counter("bitswap.duplicate_wants_suppressed")
                        .inc();
                }
              } else {
                fetch->failed = true;
              }
            }
          }
          pump(fetch);
        });
  }
}

}  // namespace ipfs::bitswap
