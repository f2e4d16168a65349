// Kademlia routing table with the paper's parameters: i = 256 buckets of
// k = 20 peers, bucket index chosen by the common prefix length between
// the local key and the peer's key (Section 2.3).
//
// Storage is built for 100k-node worlds: the whole table is one flat
// vector of 36-byte entries, grouped by bucket in ascending index order
// and least recently seen first within a bucket. An entry is the peer's
// key plus a handle into a PeerDirectory, which holds each identity's
// PeerRef once for every table that shares it; PeerRefs are built only
// when the table hands peers out.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "dht/key.h"
#include "dht/messages.h"
#include "dht/peer_directory.h"

namespace ipfs::dht {

constexpr std::size_t kBucketSize = 20;   // k
constexpr std::size_t kBucketCount = 256; // i

class RoutingTable {
 public:
  // `directory` holds the records of the table's peers and must outlive
  // the table. `diversity_cap` bounds how many entries of any one bucket
  // may share a /16 IPv4 prefix (Henningsen et al.'s Sybil defense: one
  // operator's address block cannot monopolize a bucket). 0 disables the
  // check and keeps the table bit-identical to the uncapped behavior.
  RoutingTable(PeerDirectory& directory, Key local_key,
               std::size_t diversity_cap = 0);

  struct Entry {
    Key key;                     // cached SHA-256 of the PeerID
    PeerDirectory::Handle peer;  // the peer's record in directory()
  };

  // Inserts or refreshes a peer. Full buckets reject newcomers (original
  // Kademlia bias towards long-lived peers, which the paper's churn data
  // justifies). Returns true if the peer is (now) in the table. An
  // accepted peer's record in the directory is replaced by `peer`.
  bool upsert(const PeerRef& peer);

  // Replaces every entry at once, as upserting `entries` in order into an
  // empty table would. They must already be in table order, ascending
  // bucket index and least recently seen first, with at most k per bucket,
  // no repeated key and not the local key; each handle must name a record
  // in directory(). The diversity cap must be 0, since nothing is checked
  // against it.
  void assign(std::vector<Entry> entries);

  void remove(const multiformats::PeerId& peer);
  bool contains(const multiformats::PeerId& peer) const;

  // Up to `count` peers closest to `target` by XOR distance.
  std::vector<PeerRef> closest(const Key& target, std::size_t count) const;

  // All peers across all buckets (crawler surface: the paper's crawler
  // asks peers for all entries in their k-buckets, Section 4.1).
  std::vector<PeerRef> all_peers() const;

  std::size_t size() const { return entries_.size(); }
  std::size_t bucket_size(std::size_t index) const;

  const Key& local_key() const { return local_key_; }
  PeerDirectory& directory() const { return *directory_; }

  std::size_t diversity_cap() const { return diversity_cap_; }

  // Newcomers rejected because their /16 prefix already held `cap`
  // entries in the target bucket. Observability for the Sybil defense.
  std::uint64_t diversity_rejections() const { return diversity_rejections_; }

  // The /16 IPv4 prefix used as the diversity class, if the peer carries
  // an ip4 address. Address-less peers are exempt from the cap (they
  // cannot be classified, and the simulator's synthetic peers always
  // carry one).
  static std::optional<std::uint16_t> diversity_class(const PeerRef& peer);

 private:
  std::size_t bucket_index(const Key& key) const;
  // [first, last) offsets of bucket `index`'s run of entries_.
  std::pair<std::size_t, std::size_t> bucket_bounds(std::size_t index) const;
  // The entry for `key`, or entries_.end().
  std::vector<Entry>::const_iterator find(const Key& key) const;
  // Whether `entries` meet assign()'s preconditions.
  bool in_table_order(const std::vector<Entry>& entries) const;

  PeerDirectory* directory_;
  Key local_key_;
  std::vector<Entry> entries_;
  std::size_t diversity_cap_ = 0;
  std::uint64_t diversity_rejections_ = 0;
};

}  // namespace ipfs::dht
