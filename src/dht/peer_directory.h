// One record per peer identity, shared by the routing tables that point
// into it. A world hands one directory to all of its DHT nodes, so a
// peer's PeerRef exists once however many tables hold it; a table entry
// is the peer's 32-byte key plus a 4-byte handle into the directory, and
// full PeerRefs are built only when a table hands peers out.
//
// The directory is keyed by the peer's DHT key (the SHA-256 of its
// PeerID), not by sim::NodeId: one node can carry many identities, each
// with its own addresses. An attacker's Sybil identities, for example,
// all sit behind a couple of front nodes.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dht/key.h"
#include "dht/messages.h"

namespace ipfs::dht {

class PeerDirectory {
 public:
  using Handle = std::uint32_t;

  // Records `peer` under `key` (its Key::for_peer) and returns its handle.
  // A known identity's record is replaced: the newest addresses are what
  // every table holding the peer hands out. Handles stay valid for the
  // directory's lifetime, but references from operator[] do not survive
  // the next intern() of a new identity.
  Handle intern(const PeerRef& peer, const Key& key);

  const PeerRef& operator[](Handle handle) const { return peers_[handle]; }
  std::size_t size() const { return peers_.size(); }

 private:
  std::vector<PeerRef> peers_;
  std::unordered_map<Key, Handle, KeyHasher> index_;
};

}  // namespace ipfs::dht
