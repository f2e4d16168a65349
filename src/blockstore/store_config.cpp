#include "blockstore/store_config.h"

#include "blockstore/persist/async_store.h"
#include "blockstore/persist/persistent_store.h"

namespace ipfs::blockstore {

std::unique_ptr<BlockStore> make_store(const StoreConfig& config,
                                       metrics::Registry* metrics) {
  if (config.backend == StoreConfig::Backend::kMemory)
    return std::make_unique<BlockStore>();

  std::unique_ptr<persist::Storage> storage;
  if (config.directory.empty()) {
    storage = std::make_unique<persist::MemStorage>();
  } else {
    storage = std::make_unique<persist::PosixStorage>(config.directory);
  }

  persist::PersistConfig persist_config;
  persist_config.segment_bytes = config.segment_bytes;
  persist_config.crash_seed = config.crash_seed;
  persist_config.metrics = metrics;
  auto base = std::make_unique<persist::PersistentBlockStore>(
      std::move(storage), persist_config);

  persist::AsyncConfig async_config;
  async_config.flush_batch_blocks = config.flush_batch_blocks;
  async_config.queue_limit_bytes = config.queue_limit_bytes;
  async_config.metrics = metrics;
  return std::make_unique<persist::AsyncBlockStore>(std::move(base),
                                                    async_config);
}

}  // namespace ipfs::blockstore
