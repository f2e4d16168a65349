#include "indexer/indexer.h"

#include <memory>
#include <utility>

namespace ipfs::indexer {

Indexer::Indexer(transport::Transport& transport, IndexerConfig config)
    : transport_(transport), config_(std::move(config)) {
  node_ = transport_.local();
  transport_.set_request_handler(
      [this](sim::NodeId, const sim::MessagePtr& message,
             std::function<void(sim::MessagePtr, std::size_t)> respond) {
        if (message->kind() == sim::MessageKind::kQueryRequest)
          answer_query(*static_cast<const QueryRequest*>(message.get()),
                       respond);
      });
  transport_.set_message_handler(
      [this](sim::NodeId, const sim::MessagePtr& message) {
        if (message->kind() == sim::MessageKind::kAdvertiseMessage)
          on_advertise(*static_cast<const AdvertiseMessage*>(message.get()));
      });
}

Indexer::~Indexer() { ingest_timer_.cancel(); }

void Indexer::on_advertise(const AdvertiseMessage& ad) {
  ++advertisements_received_;
  transport_.metrics().counter("indexer.advertisements").inc();
  PendingAd pending;
  pending.key = ad.key;
  pending.record.provider = ad.provider;
  pending.record.received_at = transport_.now();
  pending.visible_at = transport_.now() + config_.ingest_lag;
  pending_.push_back(std::move(pending));
  arm_ingest_timer();
}

void Indexer::arm_ingest_timer() {
  if (pending_.empty() || ingest_timer_.active()) return;
  ingest_timer_ = transport_.schedule_daemon_at(
      pending_.front().visible_at, [this] { ingest_due(); });
}

void Indexer::ingest_due() {
  const sim::Time now = transport_.now();
  while (!pending_.empty() && pending_.front().visible_at <= now) {
    PendingAd ad = std::move(pending_.front());
    pending_.pop_front();
    auto& records = index_[ad.key];
    // Re-advertisement by the same provider refreshes in place.
    bool refreshed = false;
    for (auto& visible : records) {
      if (visible.record.provider.id == ad.record.provider.id) {
        visible.record = ad.record;
        visible.expires_at = now + config_.provider_ttl;
        refreshed = true;
        break;
      }
    }
    if (!refreshed) {
      records.push_back({std::move(ad.record), now + config_.provider_ttl});
    }
    transport_.metrics().counter("indexer.ingested").inc();
  }
  arm_ingest_timer();
}

void Indexer::answer_query(
    const QueryRequest& query,
    const std::function<void(sim::MessagePtr, std::size_t)>& respond) {
  ++queries_served_;
  transport_.metrics().counter("indexer.queries").inc();
  auto response = std::make_shared<QueryResponse>();
  const auto it = index_.find(query.key);
  if (it != index_.end()) {
    const sim::Time now = transport_.now();
    // Prune expired records on read: the index holds only what a query
    // may still return.
    auto& records = it->second;
    std::erase_if(records, [now](const VisibleRecord& visible) {
      return visible.expires_at <= now;
    });
    for (const VisibleRecord& visible : records) {
      response->providers.push_back(visible.record);
    }
    if (records.empty()) index_.erase(it);
  }
  const std::size_t bytes = query_response_size(response->providers.size());
  respond(std::move(response), bytes);
}

void Indexer::handle_crash() {
  index_.clear();
  pending_.clear();
  ingest_timer_.cancel();
}

void Indexer::handle_restart() {
  // Nothing to re-arm: the ingest timer is armed by the next
  // advertisement, and the index refills from the re-advertise stream.
}

std::size_t Indexer::visible_provider_count(const dht::Key& key) const {
  const auto it = index_.find(key);
  if (it == index_.end()) return 0;
  const sim::Time now = transport_.now();
  std::size_t count = 0;
  for (const VisibleRecord& visible : it->second) {
    if (visible.expires_at > now) ++count;
  }
  return count;
}

}  // namespace ipfs::indexer
