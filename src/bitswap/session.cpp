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

// One DAG walk: the blocks still to want, and the peers already tried
// for each block that failed.
struct Session::Fetch {
  std::vector<multiformats::Cid> pending;
  // Per-CID list of peers that already failed it.
  std::map<multiformats::Cid, std::vector<sim::NodeId>> failed_on;
  // Every CID ever enqueued (pending, in flight, or already landed). A
  // DAG with shared links yields the same child from several parents;
  // without this set both copies would be dispatched before either
  // lands, double-fetching the block and double-counting stats.
  std::set<multiformats::Cid> enqueued;
  int in_flight = 0;
  bool finished = false;
  bool failed = false;
  SessionFetchStats stats;
  sim::Time started = 0;
  metrics::SpanId span = 0;  // the entry point's trace span
  std::function<void(SessionFetchStats)> done;

  // True when the CID was not seen before (and is now marked seen).
  bool mark_new(const multiformats::Cid& cid) {
    return enqueued.insert(cid).second;
  }

  // Peers that already failed `cid`; empty for a block that never failed.
  std::span<const sim::NodeId> tried(const multiformats::Cid& cid) const {
    const auto it = failed_on.find(cid);
    if (it == failed_on.end()) return {};
    return it->second;
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

Session::PeerState* Session::pick_peer(std::span<const sim::NodeId> exclude) {
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

bool Session::can_still_take(std::span<const sim::NodeId> tried) const {
  return std::any_of(peers_.begin(), peers_.end(), [&](const PeerState& peer) {
    return !peer.dead &&
           std::find(tried.begin(), tried.end(), peer.node) == tried.end();
  });
}

void Session::fetch_dag(const multiformats::Cid& root,
                        std::function<void(SessionFetchStats)> done) {
  start(root,
        transport_.metrics().begin_span("bitswap.session_fetch",
                                        bitswap_.self(), root.to_string()),
        std::move(done));
}

void Session::start(const multiformats::Cid& root, metrics::SpanId span,
                    std::function<void(SessionFetchStats)> done) {
  auto fetch = std::make_shared<Fetch>();
  fetch->started = transport_.now();
  fetch->mark_new(root);
  fetch->pending.push_back(root);
  fetch->done = std::move(done);
  fetch->span = span;
  if (peers_.empty()) {
    fetch->stats.ok = false;
    transport_.metrics().end_span(fetch->span, false);
    fetch->done(fetch->stats);
    return;
  }
  if (!config_.probe_want_have) {
    pump(fetch);
    return;
  }

  // Probe phase: WANT_HAVE the root at every peer in parallel. The
  // probes seed have_latency_ms (the initial ranking) and demote peers
  // without the content. WANT_BLOCK dispatch starts as soon as the
  // first probe answers — the slowest peer must not gate the transfer.
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
          pump(fetch);
        });
  }
  pump(fetch);
}

void Session::pump(const std::shared_ptr<Fetch>& fetch) {
  if (fetch->finished) return;

  start_wants(fetch);
  // A want that fails synchronously (an unreachable peer) re-enters
  // pump from inside start_wants and may have finished the fetch.
  if (fetch->finished) return;

  // Outstanding probes never block completion: they only feed scores.
  // A failure ends the fetch at once; the wants still in flight are
  // dropped when they answer.
  if (fetch->failed || (fetch->pending.empty() && fetch->in_flight == 0)) {
    fetch->finished = true;
    fetch->stats.ok = !fetch->failed;
    fetch->stats.elapsed = transport_.now() - fetch->started;
    for (const auto& peer : peers_)
      fetch->stats.per_peer[peer.node] = peer.stats;
    transport_.metrics().end_span(fetch->span, fetch->stats.ok,
                                  fetch->stats.bytes);
    fetch->done(fetch->stats);
  }
}

bool Session::expand(Fetch& fetch, const multiformats::Cid& cid,
                     const blockstore::BlockData& data) {
  if (cid.content_codec() != multiformats::Multicodec::kDagPb) return true;
  const auto node = merkledag::DagNode::decode(*data);
  if (!node) return false;
  for (const auto& link : node->links) {
    if (fetch.mark_new(link.cid))
      fetch.pending.push_back(link.cid);
    else
      transport_.metrics().counter("bitswap.duplicate_wants_suppressed").inc();
  }
  return true;
}

void Session::start_wants(const std::shared_ptr<Fetch>& fetch) {
  while (!fetch->pending.empty() && fetch->in_flight < config_.window &&
         !fetch->failed) {
    const multiformats::Cid next = fetch->pending.back();

    // A held block (a deduplicated chunk) is never wanted.
    if (const auto local = bitswap_.store().get(next)) {
      fetch->pending.pop_back();
      if (!expand(*fetch, next, local)) fetch->failed = true;
      continue;
    }

    const auto tried = fetch->tried(next);
    PeerState* peer = pick_peer(tried);
    if (peer == nullptr) {
      // Untried live peers that are only busy: wait for a slot.
      if (fetch->in_flight > 0 && can_still_take(tried)) break;
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
            auto& tried = fetch->failed_on[next];
            tried.push_back(node);
            if (!can_still_take(tried)) {
              // No live peer is left to ask: the DAG cannot complete.
              fetch->failed = true;
            } else {
              // Requeue on the remaining peers (already in `enqueued`; a
              // retry is a re-dispatch of the same want, not a duplicate).
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
            }
          } else {
            ++fetch->stats.blocks;
            fetch->stats.bytes += block.data->size();
            if (!expand(*fetch, next, block.data)) fetch->failed = true;
          }
          pump(fetch);
        });
  }
}

}  // namespace ipfs::bitswap
