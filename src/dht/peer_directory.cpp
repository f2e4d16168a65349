#include "dht/peer_directory.h"

namespace ipfs::dht {

PeerDirectory::Handle PeerDirectory::intern(const PeerRef& peer,
                                            const Key& key) {
  if (const auto it = index_.find(key); it != index_.end()) {
    peers_[it->second] = peer;
    return it->second;
  }
  const auto handle = static_cast<Handle>(peers_.size());
  peers_.push_back(peer);
  index_.emplace(key, handle);
  return handle;
}

}  // namespace ipfs::dht
