// Log-structured, content-addressed on-disk block store
// (docs/BLOCKSTORE.md), the one durable BlockStore backend.
//
// Layout: append-only segment files (`seg-00000000.log`, rolled at
// `segment_bytes`) holding CRC-checked put/remove records, plus a
// separate pin journal (`pins.log`). Nothing is ever overwritten in
// place — a put appends, a remove appends a tombstone, and GC compacts
// by rewriting survivors into fresh segments.
//
// The Cid -> (segment, offset, length) index lives in memory and is
// rebuilt by scanning the segments on open. A record whose CRC or
// header fails mid-scan marks the crash frontier of that file: the file
// is truncated there (a torn final record is expected after power loss,
// not fatal) and recovery continues with the next segment.
//
// Durability contract ("acked"): a put is crash-safe once a flush()
// (one fsync per dirty file) has completed after it. put() appends and
// never syncs, so any number of puts share one group fsync. Records not
// yet synced sit in the unsynced tail: a power cut keeps some prefix of
// it, a process restart over real files keeps all of it, and recovery
// syncs whatever it kept.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>

#include "blockstore/blockstore.h"
#include "blockstore/persist/storage.h"
#include "blockstore/store_config.h"
#include "metrics/metrics.h"

namespace ipfs::blockstore::persist {

class PersistentBlockStore : public BlockStore {
 public:
  // Opens (or creates) the store: scans the segment files and pin
  // journal, rebuilding the in-memory index. Torn tails are truncated.
  // Reads config.segment_bytes and config.crash_seed; `metrics` is the
  // counter sink (blockstore.* — docs/OBSERVABILITY.md) and may be null.
  explicit PersistentBlockStore(std::unique_ptr<Storage> storage,
                                const StoreConfig& config = {},
                                metrics::Registry* metrics = nullptr);

  PutStatus put(const Block& block) override;
  BlockData get(const Cid& cid) const override;
  bool has(const Cid& cid) const override;
  bool remove(const Cid& cid) override;

  void pin(const Cid& cid) override;
  void unpin(const Cid& cid) override;
  bool pinned(const Cid& cid) const override;

  // Drops every unpinned block from the index, then compacts: survivors
  // are rewritten into fresh segments and the old files deleted, so the
  // reclaimed payload bytes really leave the storage. Returns the
  // payload bytes of the dropped blocks.
  std::uint64_t collect_garbage() override;

  std::size_t block_count() const override { return index_.size(); }
  std::uint64_t total_bytes() const override { return total_bytes_; }

  // Group durability barrier: one sync per dirty file, however many
  // records landed since the last flush. Every put before it is acked
  // once it returns.
  void flush() override;

  // Power loss: un-synced tails are cut at a seeded point (MemStorage;
  // PosixStorage keeps them, as a process restart does), then the store
  // reopens from what survived.
  void handle_crash() override;

  // --- Introspection (tests, benches, docs/BLOCKSTORE.md) -----------------
  Storage& storage() { return *storage_; }
  std::size_t segment_count() const { return segments_.size(); }
  // Bytes of torn/corrupt log truncated by the most recent open.
  std::uint64_t recovered_truncated_bytes() const {
    return recovered_truncated_bytes_;
  }

 private:
  struct Location {
    std::uint32_t segment = 0;
    std::uint64_t offset = 0;  // of the payload, not the record header
    std::uint32_t length = 0;
  };

  static std::string segment_name(std::uint32_t id);
  metrics::Counter* counter(const char* name) const;
  void append_record(const std::string& file, std::uint8_t kind,
                     const Cid& cid, std::span<const std::uint8_t> data);
  // Appends a record to the current segment, first rolling to a fresh
  // one when it has reached segment_bytes; returns where the record's
  // payload landed.
  Location append_to_segment(std::uint8_t kind, const Cid& cid,
                             std::span<const std::uint8_t> data);
  // Scans one log file, applying records via `apply`; truncates at the
  // first torn/corrupt record. Returns bytes truncated.
  std::uint64_t scan_log(
      const std::string& file,
      const std::function<void(std::uint8_t kind, Cid cid,
                               std::uint64_t payload_offset,
                               std::uint32_t payload_len)>& apply);
  void open();

  std::unique_ptr<Storage> storage_;
  StoreConfig config_;
  metrics::Registry* metrics_;
  std::map<Cid, Location> index_;
  std::set<Cid> pinned_;
  std::set<std::uint32_t> segments_;  // existing segment ids, ascending
  std::uint32_t current_segment_ = 0;
  std::uint64_t current_bytes_ = 0;  // length of the current segment
  std::uint64_t total_bytes_ = 0;
  std::set<std::string> dirty_files_;  // appended since last flush
  std::uint64_t recovered_truncated_bytes_ = 0;
  std::uint64_t crashes_ = 0;
};

}  // namespace ipfs::blockstore::persist
