#include "bitswap/bitswap.h"

#include "bitswap/session.h"

namespace ipfs::bitswap {

namespace {
constexpr std::size_t kWantMessageBytes = 48;
constexpr std::size_t kHaveMessageBytes = 40;
constexpr std::size_t kBlockOverheadBytes = 64;
}  // namespace

Bitswap::Bitswap(transport::Transport& transport,
                 blockstore::BlockStore& store)
    : transport_(transport), node_(transport.local()), store_(store) {}

bool Bitswap::handle_request(
    sim::NodeId from, const sim::MessagePtr& message,
    const std::function<void(sim::MessagePtr, std::size_t)>& respond) {
  metrics::Registry& metrics = transport_.metrics();
  switch (message->kind()) {
    case sim::MessageKind::kWantHaveRequest: {
      const auto* want_have =
          static_cast<const WantHaveRequest*>(message.get());
      metrics.counter("bitswap.want_have.rx").inc();
      if (!store_.has(want_have->cid)) {
        metrics.counter("bitswap.dont_have.tx").inc();
        return answer_holding_nothing(message, respond);
      }
      auto response = std::make_shared<HaveResponse>();
      response->have = true;
      respond(std::move(response), kHaveMessageBytes);
      return true;
    }
    case sim::MessageKind::kWantBlockRequest: {
      const auto* want_block =
          static_cast<const WantBlockRequest*>(message.get());
      metrics.counter("bitswap.want_block.rx").inc();
      BlockData data = store_.get(want_block->cid);
      if (!data) {
        if (want_block->send_dont_have)
          metrics.counter("bitswap.dont_have.tx").inc();
        return answer_holding_nothing(message, respond);
      }
      Ledger& ledger = ledgers_[from];
      ledger.bytes_sent += data->size();
      ++ledger.blocks_sent;
      metrics.counter("bitswap.blocks_sent").inc();
      metrics.counter("bitswap.bytes_sent").inc(data->size());
      const std::size_t size = kBlockOverheadBytes + data->size();
      auto response = std::make_shared<BlockResponse>();
      response->cid = want_block->cid;
      response->data = std::move(data);
      respond(std::move(response), size);
      return true;
    }
    default:
      return false;
  }
}

bool Bitswap::answer_holding_nothing(
    const sim::MessagePtr& message,
    const std::function<void(sim::MessagePtr, std::size_t)>& respond) {
  switch (message->kind()) {
    case sim::MessageKind::kWantHaveRequest:
      respond(std::make_shared<HaveResponse>(), kHaveMessageBytes);
      return true;
    case sim::MessageKind::kWantBlockRequest: {
      const auto* want_block =
          static_cast<const WantBlockRequest*>(message.get());
      auto response = std::make_shared<BlockResponse>();
      response->cid = want_block->cid;
      response->dont_have = want_block->send_dont_have;
      respond(std::move(response), kBlockOverheadBytes);
      return true;
    }
    default:
      return false;
  }
}

struct Bitswap::Discovery {
  bool finished = false;
  std::size_t answered = 0;
  std::size_t total = 0;
  metrics::SpanId span = 0;  // bitswap.discover trace span
  transport::Timer timer;
};

void Bitswap::discover(const Cid& cid,
                       std::function<void(std::optional<sim::NodeId>)> done,
                       bool early_exit) {
  metrics::Registry& metrics = transport_.metrics();
  metrics.counter("bitswap.discovery_attempts").inc();
  const auto peers = transport_.connections();
  if (peers.empty()) {
    metrics.end_span(
        metrics.begin_span("bitswap.discover", node_, cid.to_string()),
        false);
    done(std::nullopt);
    return;
  }

  auto state = std::make_shared<Discovery>();
  state->total = peers.size();
  state->span = metrics.begin_span("bitswap.discover", node_, cid.to_string());
  const std::uint64_t discovery_id = next_discovery_id_++;
  discoveries_.emplace(discovery_id, state);

  auto finish = [this, state, discovery_id,
                 done = std::move(done)](std::optional<sim::NodeId> peer) {
    if (state->finished) return;
    state->finished = true;
    state->timer.cancel();
    discoveries_.erase(discovery_id);
    if (peer) transport_.metrics().counter("bitswap.discovery_hits").inc();
    transport_.metrics().end_span(state->span, peer.has_value());
    done(peer);
  };

  state->timer = transport_.schedule_after(
      kDiscoveryTimeout, [finish] { finish(std::nullopt); });

  for (const sim::NodeId peer : peers) {
    auto request = std::make_shared<WantHaveRequest>();
    request->cid = cid;
    metrics.counter("bitswap.want_have.tx").inc();
    transport_.request(
        peer, std::move(request), kWantMessageBytes, kDiscoveryTimeout,
        [this, state, finish, peer, early_exit](
            sim::RpcStatus status, const sim::MessagePtr& message) {
          if (state->finished) return;
          ++state->answered;
          if (status == sim::RpcStatus::kOk && message != nullptr &&
              message->kind() == sim::MessageKind::kHaveResponse) {
            const auto* have =
                static_cast<const HaveResponse*>(message.get());
            if (have->have) {
              finish(peer);
              return;
            }
            transport_.metrics().counter("bitswap.dont_have.rx").inc();
          }
          if (early_exit && state->answered == state->total)
            finish(std::nullopt);
        });
  }
}

void Bitswap::probe_have(sim::NodeId peer, const Cid& cid,
                         std::function<void(bool, bool)> done) {
  auto request = std::make_shared<WantHaveRequest>();
  request->cid = cid;
  transport_.metrics().counter("bitswap.want_have.tx").inc();
  transport_.request(
      peer, std::move(request), kWantMessageBytes, kDiscoveryTimeout,
      [this, done = std::move(done)](sim::RpcStatus status,
                                     const sim::MessagePtr& message) {
        if (status != sim::RpcStatus::kOk || message == nullptr ||
            message->kind() != sim::MessageKind::kHaveResponse) {
          done(false, false);
          return;
        }
        const auto* have = static_cast<const HaveResponse*>(message.get());
        if (!have->have)
          transport_.metrics().counter("bitswap.dont_have.rx").inc();
        done(have->have, true);
      });
}

void Bitswap::fetch_block(sim::NodeId peer, const Cid& cid,
                          std::function<void(BlockResult)> done) {
  auto request = std::make_shared<WantBlockRequest>();
  request->cid = cid;
  request->send_dont_have = true;
  transport_.metrics().counter("bitswap.want_block.tx").inc();
  transport_.request(
      peer, std::move(request), kWantMessageBytes, kBlockTimeout,
      [this, peer, cid, done = std::move(done)](sim::RpcStatus status,
                                                const sim::MessagePtr& message) {
        BlockResult result;
        if (status != sim::RpcStatus::kOk || message == nullptr ||
            message->kind() != sim::MessageKind::kBlockResponse) {
          transport_.metrics().counter("bitswap.block_fetch_failures").inc();
          done(std::move(result));
          return;
        }
        const auto* response =
            static_cast<const BlockResponse*>(message.get());
        if (!response->data) {
          if (response->dont_have)
            transport_.metrics().counter("bitswap.dont_have.rx").inc();
          result.dont_have = response->dont_have;
          transport_.metrics().counter("bitswap.block_fetch_failures").inc();
          done(std::move(result));
          return;
        }
        // Verify against the CID before accepting (Section 2.1:
        // self-certification removes the need to trust the provider).
        // The only hash of these bytes: the store trusts the Block.
        const auto block = response->cid == cid
                               ? Block::verify(cid, response->data)
                               : std::nullopt;
        if (!block) {
          transport_.metrics().counter("bitswap.block_fetch_failures").inc();
          done(std::move(result));
          return;
        }
        Ledger& ledger = ledgers_[peer];
        ledger.bytes_received += block->data->size();
        ++ledger.blocks_received;
        transport_.metrics().counter("bitswap.blocks_received").inc();
        transport_.metrics()
            .counter("bitswap.bytes_received")
            .inc(block->data->size());
        store_.put(*block);
        result.data = block->data;
        done(std::move(result));
      });
}

void Bitswap::fetch_dag(sim::NodeId peer, const Cid& root,
                        std::function<void(FetchStats)> done) {
  SessionConfig config;
  config.probe_want_have = false;
  auto session = std::make_shared<Session>(*this, config);
  session->add_peer(peer);
  Session& walk = *session;
  // The fetch keeps its completion callback until its last want answers,
  // and the callback keeps the session.
  walk.start(root,
             transport_.metrics().begin_span("bitswap.fetch_dag", node_,
                                             root.to_string(), 0, peer),
             [session = std::move(session),
              done = std::move(done)](const SessionFetchStats& stats) {
               done(stats);
             });
}

void Bitswap::handle_crash() {
  for (auto& [id, discovery] : discoveries_) {
    discovery->finished = true;
    discovery->timer.cancel();
    transport_.metrics().end_span(discovery->span, false);
  }
  discoveries_.clear();
}

const Ledger& Bitswap::ledger_for(sim::NodeId peer) { return ledgers_[peer]; }

}  // namespace ipfs::bitswap
