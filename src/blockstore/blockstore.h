// Content-addressed block storage. Every IPFS node owns a BlockStore; the
// gateway additionally keeps an LRU-capped index of object sizes as its
// nginx-style cache.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "blockstore/tinylfu.h"
#include "multiformats/cid.h"

namespace ipfs::blockstore {

using multiformats::Cid;

// Shared-ownership block payload. Content is immutable (CID-addressed),
// so a store hit, a Bitswap reply and a verified Block alias one
// allocation instead of copying the block's bytes.
using BlockData = std::shared_ptr<const std::vector<std::uint8_t>>;

// A block whose CID is the hash of its bytes (Section 2.1). Hashing is
// the only way to make one: from_data derives the CID, verify checks a
// given one. The members are const, so a Block stays checked, and every
// store trusts the Block it is handed: each block is hashed once.
class Block {
 public:
  // Builds a block from raw bytes, deriving its CID (sha2-256, given codec).
  static Block from_data(multiformats::Multicodec codec,
                         std::span<const std::uint8_t> data);
  // Checks untrusted bytes against `cid`; nullopt when `data` is null or
  // does not hash to it.
  static std::optional<Block> verify(const Cid& cid, BlockData data);

  const Cid cid;
  const BlockData data;  // never null

 private:
  Block(Cid cid, BlockData data) : cid(std::move(cid)), data(std::move(data)) {}
};

enum class PutStatus { kStored, kAlreadyPresent };

// Content-addressed store with pinning and GC, mirroring the go-ipfs
// node store semantics the paper relies on (Section 3.4). The base class
// is the in-memory implementation every node uses by default; the
// virtual surface lets persistent backends (blockstore/persist) slot in
// behind the same interface — node, Bitswap and merkledag code holds a
// BlockStore& and never knows which backend serves it.
class BlockStore {
 public:
  BlockStore() = default;
  virtual ~BlockStore() = default;

  // Stores the block's shared payload without a copy. Trusts the Block:
  // it was hashed when it was made.
  virtual PutStatus put(const Block& block);

  // Shared payload, nullptr on miss. Never copies: every hit aliases the
  // allocation made at insert time (content is immutable by CID).
  virtual BlockData get(const Cid& cid) const;
  virtual bool has(const Cid& cid) const;
  virtual bool remove(const Cid& cid);  // refuses to remove pinned blocks

  virtual void pin(const Cid& cid);
  virtual void unpin(const Cid& cid);
  virtual bool pinned(const Cid& cid) const;

  // Drops every unpinned block; returns bytes reclaimed.
  virtual std::uint64_t collect_garbage();

  virtual std::size_t block_count() const { return blocks_.size(); }
  virtual std::uint64_t total_bytes() const { return total_bytes_; }

  // Durability barrier: returns once every previously accepted put is
  // crash-safe. The in-memory store has no crash safety to offer — a
  // no-op here; the persistent store fsyncs every file appended to
  // since its last flush (persist/persistent_store.h).
  virtual void flush() {}

  // Power-loss hook for the fault layer (sim/faults.h): persistent
  // backends drop un-flushed state and replay their on-disk log. The
  // in-memory store models the paper's nodes whose pinned store
  // "survives on disk" across a crash, so the base hook keeps all state.
  virtual void handle_crash() {}

 private:
  // Both containers key by Cid directly (Cid is totally ordered), so pin
  // checks cost no re-encoding.
  std::map<Cid, BlockData> blocks_;
  std::set<Cid> pinned_;
  std::uint64_t total_bytes_ = 0;
};

// Admission policy for LruBlockStore.
struct LruConfig {
  // TinyLFU admission: a 4-bit count-min sketch estimates access
  // frequency; at eviction time a candidate strictly colder than the
  // would-be victim is refused instead of evicting it.
  bool tinylfu = false;
};

// Byte-capped segmented-LRU cache of object sizes (the gateway's
// nginx-style web cache; paper Section 3.4). An entry is a whole
// object's root CID and its byte count, charged against the capacity as
// if the bytes were held: every gateway tier reads only the size (its
// latency and byte accounting), so no tier copies an object. New entries
// enter a probationary segment; a hit promotes to the protected segment,
// whose overflow demotes back to probation — so scan traffic evicts
// other scan traffic first. With `LruConfig::tinylfu` the sketch
// additionally gates admission.
class LruBlockStore {
 public:
  explicit LruBlockStore(std::uint64_t capacity_bytes, LruConfig config = {});

  // Inserts (or refreshes) the `bytes`-long object under `cid`, evicting
  // probationary entries until it fits. Objects larger than the capacity
  // are refused, as are (under TinyLFU) objects colder than every
  // would-be victim. Content is immutable, so a resident CID keeps the
  // size it was inserted with.
  bool put(const Cid& cid, std::uint64_t bytes);

  // A hit refreshes recency, promotes probation -> protected and returns
  // the object's byte count; nullopt on miss.
  std::optional<std::uint64_t> get(const Cid& cid);
  bool has(const Cid& cid) const;

  std::uint64_t capacity_bytes() const { return capacity_; }
  std::uint64_t used_bytes() const { return used_; }
  std::uint64_t protected_bytes() const { return protected_bytes_; }
  std::size_t block_count() const { return entries_.size(); }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t admission_rejections() const { return admission_rejections_; }
  // Null unless LruConfig::tinylfu was set.
  const FrequencySketch* sketch() const {
    return sketch_ ? &*sketch_ : nullptr;
  }

 private:
  struct Entry {
    std::uint64_t bytes = 0;
    std::list<Cid>::iterator recency;  // position in its segment's list
    bool protected_segment = false;
  };

  void touch(const Cid& cid, Entry& entry);
  // Frees space for `incoming_size`; returns false when TinyLFU refuses
  // the candidate (a victim is strictly hotter).
  bool make_room(std::uint64_t incoming_size, std::uint64_t candidate_hash);
  void evict_one();

  std::uint64_t capacity_;
  std::uint64_t protected_capacity_;
  std::uint64_t used_ = 0;
  std::uint64_t protected_bytes_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t admission_rejections_ = 0;
  std::list<Cid> probation_;  // front = most recent
  std::list<Cid> protected_;  // front = most recent
  std::map<Cid, Entry> entries_;
  std::optional<FrequencySketch> sketch_;
};

}  // namespace ipfs::blockstore
