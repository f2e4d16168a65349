// Backend selection knob for a node's BlockStore (docs/BLOCKSTORE.md).
// IpfsNodeConfig embeds one of these; scenarios and ipfsd flip the
// backend without the node, Bitswap or merkledag code changing.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "blockstore/blockstore.h"

namespace ipfs::metrics {
class Registry;
}

namespace ipfs::blockstore {

struct StoreConfig {
  enum class Backend {
    kMemory,           // in-process std::map store (the seed behavior)
    kPersistentAsync,  // log-structured store behind a write-behind
                       // queue with batched group fsync
  };

  Backend backend = Backend::kMemory;

  // kPersistentAsync only. Empty directory => MemStorage (simulated
  // files with power-loss semantics); non-empty => PosixStorage rooted
  // there (what ipfsd --store-dir passes).
  std::string directory;
  std::uint64_t segment_bytes = 8 * 1024 * 1024;
  // Seed for simulated power-loss cut points (MemStorage only).
  std::uint64_t crash_seed = 0;

  // The write-behind queue (persist/async_store.h).
  std::size_t flush_batch_blocks = 64;
  std::uint64_t queue_limit_bytes = 64 * 1024 * 1024;
  // Periodic flush cadence for the node's daemon timer; <= 0 disables.
  // Microseconds, kept sim-free so this header has no sim dependency.
  std::int64_t flush_interval_us = 0;
};

// Builds the configured store. `metrics` may be null (no counters).
std::unique_ptr<BlockStore> make_store(const StoreConfig& config,
                                       metrics::Registry* metrics);

}  // namespace ipfs::blockstore
