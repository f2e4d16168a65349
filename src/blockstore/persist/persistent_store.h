// Log-structured, content-addressed on-disk block store
// (docs/BLOCKSTORE.md). The tentpole of ISSUE 9's storage half.
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
// Durability contract: appended records are crash-safe only after
// flush() (fsync of the dirty files). The AsyncBlockStore front
// (async_store.h) builds its write-behind/acked semantics on exactly
// this line.
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
#include "metrics/metrics.h"

namespace ipfs::blockstore::persist {

struct PersistConfig {
  // Roll to a fresh segment file once the current one reaches this size.
  std::uint64_t segment_bytes = 8 * 1024 * 1024;
  // Seed for the simulated power-loss cut points (MemStorage backends);
  // mixed with a per-crash counter so repeated crashes differ.
  std::uint64_t crash_seed = 0;
  // Counter sink (blockstore.* — docs/OBSERVABILITY.md); may be null.
  metrics::Registry* metrics = nullptr;
};

class PersistentBlockStore : public BlockStore {
 public:
  // Opens (or creates) the store: scans the segment files and pin
  // journal, rebuilding the in-memory index. Torn tails are truncated.
  PersistentBlockStore(std::unique_ptr<Storage> storage,
                       PersistConfig config = {});

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
  // records landed since the last flush.
  void flush() override;

  // Power loss: un-synced tails are cut at a seeded point (MemStorage),
  // then the store reopens from what survived.
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
  void roll_segment_if_full();
  // Scans one log file, applying records via `apply`; truncates at the
  // first torn/corrupt record. Returns bytes truncated.
  std::uint64_t scan_log(
      const std::string& file,
      const std::function<void(std::uint8_t kind, Cid cid,
                               std::uint64_t payload_offset,
                               std::uint32_t payload_len)>& apply);
  void open();

  std::unique_ptr<Storage> storage_;
  PersistConfig config_;
  std::map<Cid, Location> index_;
  std::set<Cid> pinned_;
  std::set<std::uint32_t> segments_;  // existing segment ids, ascending
  std::uint32_t current_segment_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::set<std::string> dirty_files_;  // appended since last flush
  std::uint64_t recovered_truncated_bytes_ = 0;
  std::uint64_t crashes_ = 0;
};

}  // namespace ipfs::blockstore::persist
