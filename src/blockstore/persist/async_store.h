// Write-behind front for PersistentBlockStore (docs/BLOCKSTORE.md).
//
// put() parks the Block in a bounded in-memory queue — no hashing (the
// Block was checked once, when it was made: Block::from_data or
// Block::verify), no disk I/O, no fsync. The queue drains to the
// persistent store in batches (flush_batch_blocks per trigger, or
// earlier under queue_limit_bytes backpressure), and one flush() syncs
// the whole batch with a single group fsync per dirty segment file.
// That batching is where the >=5x put-throughput win over
// fsync-per-put comes from (bench_ablation_dataplane).
//
// Durability contract ("acked"): a block is guaranteed to survive
// handle_crash()/power loss only once a flush() has completed after its
// put() returned kStored. Queued-but-unflushed blocks are explicitly at
// risk: handle_crash() drops the queue, then lets the base store cut
// its un-fsynced tail. The simfuzz crash-during-flush invariant checks
// exactly this line: every acked put is readable after restart.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>

#include "blockstore/persist/persistent_store.h"

namespace ipfs::blockstore::persist {

struct AsyncConfig {
  // Drain the queue to the base store once this many blocks are queued.
  // Draining appends records but does NOT fsync; only flush() does.
  std::size_t flush_batch_blocks = 64;
  // Backpressure bound: a put that would push the queue past this many
  // payload bytes forces a full flush() first (synchronous fsync).
  std::uint64_t queue_limit_bytes = 64 * 1024 * 1024;
  // Counter sink (blockstore.flush.* — docs/OBSERVABILITY.md).
  metrics::Registry* metrics = nullptr;
};

class AsyncBlockStore final : public BlockStore {
 public:
  AsyncBlockStore(std::unique_ptr<PersistentBlockStore> base,
                  AsyncConfig config = {});

  PutStatus put(const Block& block) override;
  BlockData get(const Cid& cid) const override;  // read-through: queue first
  bool has(const Cid& cid) const override;
  bool remove(const Cid& cid) override;

  void pin(const Cid& cid) override { base_->pin(cid); }
  void unpin(const Cid& cid) override { base_->unpin(cid); }
  bool pinned(const Cid& cid) const override { return base_->pinned(cid); }

  // Drains the queue first so pinned-but-queued blocks are judged by the
  // base store, then compacts there.
  std::uint64_t collect_garbage() override;

  std::size_t block_count() const override {
    return queue_.size() + base_->block_count();
  }
  std::uint64_t total_bytes() const override {
    return queue_bytes_ + base_->total_bytes();
  }

  // Drains the queue and fsyncs: everything put() before this call is
  // durable (acked) once it returns.
  void flush() override;

  // Power loss: the in-memory queue is gone, and the base store loses
  // its un-fsynced tail too.
  void handle_crash() override;

  PersistentBlockStore& base() { return *base_; }
  std::size_t queued_blocks() const { return queue_.size(); }
  std::uint64_t queued_bytes() const { return queue_bytes_; }

 private:
  // Appends the queued blocks to the base store (no fsync) and empties
  // the queue.
  void drain();

  std::unique_ptr<PersistentBlockStore> base_;
  AsyncConfig config_;
  std::map<Cid, Block> queue_;
  std::deque<Cid> queue_order_;  // FIFO: preserves append order on drain
  std::uint64_t queue_bytes_ = 0;
};

}  // namespace ipfs::blockstore::persist
