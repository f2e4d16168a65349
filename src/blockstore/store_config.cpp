#include "blockstore/store_config.h"

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
  return std::make_unique<persist::PersistentBlockStore>(std::move(storage),
                                                         config, metrics);
}

}  // namespace ipfs::blockstore
