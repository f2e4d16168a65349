#include "blockstore/persist/async_store.h"

namespace ipfs::blockstore::persist {

AsyncBlockStore::AsyncBlockStore(std::unique_ptr<PersistentBlockStore> base,
                                 AsyncConfig config)
    : base_(std::move(base)), config_(config) {}

PutStatus AsyncBlockStore::put(const Block& block) {
  if (has(block.cid)) return PutStatus::kAlreadyPresent;

  const std::uint64_t size = block.data->size();
  if (config_.queue_limit_bytes > 0 &&
      queue_bytes_ + size > config_.queue_limit_bytes) {
    flush();  // backpressure: make room durably before accepting more
  }

  queue_bytes_ += size;
  queue_order_.push_back(block.cid);
  queue_.emplace(block.cid, block);
  if (config_.flush_batch_blocks > 0 &&
      queue_.size() >= config_.flush_batch_blocks) {
    drain();  // append the batch; fsync still deferred to flush()
  }
  return PutStatus::kStored;
}

BlockData AsyncBlockStore::get(const Cid& cid) const {
  const auto it = queue_.find(cid);
  if (it != queue_.end()) return it->second.data;
  return base_->get(cid);
}

bool AsyncBlockStore::has(const Cid& cid) const {
  return queue_.contains(cid) || base_->has(cid);
}

bool AsyncBlockStore::remove(const Cid& cid) {
  if (pinned(cid)) return false;
  const auto it = queue_.find(cid);
  if (it != queue_.end()) {
    queue_bytes_ -= it->second.data->size();
    queue_.erase(it);
    for (auto order = queue_order_.begin(); order != queue_order_.end();
         ++order) {
      if (*order == cid) {
        queue_order_.erase(order);
        break;
      }
    }
    return true;
  }
  return base_->remove(cid);
}

std::uint64_t AsyncBlockStore::collect_garbage() {
  flush();
  return base_->collect_garbage();
}

void AsyncBlockStore::drain() {
  if (queue_.empty()) return;
  const std::size_t blocks = queue_.size();
  const std::uint64_t bytes = queue_bytes_;
  for (const Cid& cid : queue_order_) {
    const auto it = queue_.find(cid);
    if (it == queue_.end()) continue;  // removed while queued
    base_->put(it->second);
  }
  queue_.clear();
  queue_order_.clear();
  queue_bytes_ = 0;
  if (config_.metrics) {
    config_.metrics->counter("blockstore.flush.batches").inc();
    config_.metrics->counter("blockstore.flush.blocks").inc(blocks);
    config_.metrics->counter("blockstore.flush.bytes").inc(bytes);
  }
}

void AsyncBlockStore::flush() {
  drain();
  base_->flush();
}

void AsyncBlockStore::handle_crash() {
  // Queued blocks never reached the log; they are simply gone.
  queue_.clear();
  queue_order_.clear();
  queue_bytes_ = 0;
  base_->handle_crash();
}

}  // namespace ipfs::blockstore::persist
