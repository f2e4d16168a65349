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
    kMemory,      // in-process std::map store (the seed behavior)
    kPersistent,  // log-structured store; flush() is one group fsync
  };

  Backend backend = Backend::kMemory;

  // kPersistent only. Empty directory => MemStorage (simulated files
  // with power-loss semantics); non-empty => PosixStorage rooted there
  // (what ipfsd --store-dir passes).
  std::string directory;
  // Roll to a fresh segment file once the current one reaches this size.
  std::uint64_t segment_bytes = 8 * 1024 * 1024;
  // Seed for the simulated power-loss cut points (MemStorage only);
  // mixed with a per-crash counter so repeated crashes differ.
  std::uint64_t crash_seed = 0;
  // Periodic flush cadence for the node's daemon timer; <= 0 disables.
  // Microseconds, kept sim-free so this header has no sim dependency.
  std::int64_t flush_interval_us = 0;
};

// Builds the configured store. `metrics` may be null (no counters).
std::unique_ptr<BlockStore> make_store(const StoreConfig& config,
                                       metrics::Registry* metrics);

}  // namespace ipfs::blockstore
