#include "dht/routing_table.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <functional>
#include <ranges>
#include <type_traits>

namespace ipfs::dht {

namespace {

// Copies the records of `handles` out of the directory. The records lie
// scattered across it, and each copy bumps the PeerId's refcount with a
// locked instruction that holds back the loads after it, so the misses
// would be paid one at a time; fetching every record, then its address
// list, first lets them overlap.
std::vector<PeerRef> gather(const PeerDirectory& directory,
                            std::ranges::sized_range auto&& handles) {
  for (const PeerDirectory::Handle handle : handles)
    __builtin_prefetch(&directory[handle]);
  for (const PeerDirectory::Handle handle : handles)
    __builtin_prefetch(directory[handle].addresses.data());
  std::vector<PeerRef> out;
  out.reserve(std::ranges::size(handles));
  for (const PeerDirectory::Handle handle : handles)
    out.push_back(directory[handle]);
  return out;
}

}  // namespace

RoutingTable::RoutingTable(PeerDirectory& directory, Key local_key,
                           std::size_t diversity_cap)
    : directory_(&directory),
      local_key_(std::move(local_key)),
      diversity_cap_(diversity_cap) {
  static_assert(sizeof(Entry) == 36 && std::is_trivially_copyable_v<Entry>,
                "a routing entry is a key and a handle, with no heap block");
}

std::optional<std::uint16_t> RoutingTable::diversity_class(
    const PeerRef& peer) {
  for (const auto& address : peer.addresses) {
    const auto ip4 =
        address.value_for(multiformats::MultiaddrProtocol::kIp4);
    if (ip4) return static_cast<std::uint16_t>(((*ip4)[0] << 8) | (*ip4)[1]);
  }
  return std::nullopt;
}

std::size_t RoutingTable::bucket_index(const Key& key) const {
  const int cpl = local_key_.common_prefix_len(key);
  // cpl == 256 means key == local key; it never enters the table.
  return std::min<std::size_t>(cpl, kBucketCount - 1);
}

std::pair<std::size_t, std::size_t> RoutingTable::bucket_bounds(
    std::size_t index) const {
  const auto run = std::ranges::equal_range(
      entries_, index, std::less<>{},
      [this](const Entry& entry) { return bucket_index(entry.key); });
  return {static_cast<std::size_t>(run.begin() - entries_.begin()),
          static_cast<std::size_t>(run.end() - entries_.begin())};
}

std::vector<RoutingTable::Entry>::const_iterator RoutingTable::find(
    const Key& key) const {
  const auto [first, last] = bucket_bounds(bucket_index(key));
  const auto end = entries_.begin() + last;
  const auto it = std::find_if(
      entries_.begin() + first, end,
      [&](const Entry& entry) { return entry.key == key; });
  return it == end ? entries_.end() : it;
}

bool RoutingTable::upsert(const PeerRef& peer) {
  const Key key = Key::for_peer(peer.id);
  if (key == local_key_) return false;
  const auto [first, last] = bucket_bounds(bucket_index(key));
  const auto begin = entries_.begin() + first;
  const auto end = entries_.begin() + last;

  // Dedup on the cached key (SHA-256 of the PeerID, injective over ids):
  // an inline 32-byte compare instead of chasing the id's digest buffer.
  const auto it = std::find_if(
      begin, end, [&](const Entry& entry) { return entry.key == key; });
  if (it != end) {
    // Refresh: move to the tail (most recently seen) and update addresses.
    it->peer = directory_->intern(peer, key);
    std::rotate(it, it + 1, end);
    return true;
  }

  if (last - first >= kBucketSize) return false;
  if (diversity_cap_ > 0) {
    if (const auto prefix = diversity_class(peer)) {
      const auto shared = std::count_if(begin, end, [&](const Entry& entry) {
        return diversity_class((*directory_)[entry.peer]) == prefix;
      });
      if (static_cast<std::size_t>(shared) >= diversity_cap_) {
        ++diversity_rejections_;
        return false;
      }
    }
  }
  entries_.insert(end, Entry{key, directory_->intern(peer, key)});
  return true;
}

bool RoutingTable::in_table_order(const std::vector<Entry>& entries) const {
  if (diversity_cap_ != 0) return false;
  std::size_t bucket = 0, run_start = 0;  // the current bucket's run
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& entry = entries[i];
    if (entry.key == local_key_ || entry.peer >= directory_->size())
      return false;
    const std::size_t index = bucket_index(entry.key);
    if (index < bucket) return false;
    if (index > bucket) {
      bucket = index;
      run_start = i;
    }
    if (i - run_start >= kBucketSize) return false;
    const auto first = entries.begin() + run_start;
    const auto last = entries.begin() + i;
    if (std::ranges::find(first, last, entry.key, &Entry::key) != last)
      return false;
  }
  return true;
}

void RoutingTable::assign(std::vector<Entry> entries) {
  assert(in_table_order(entries));
  entries_ = std::move(entries);
}

void RoutingTable::remove(const multiformats::PeerId& peer) {
  const auto it = find(Key::for_peer(peer));
  if (it != entries_.end()) entries_.erase(it);
}

bool RoutingTable::contains(const multiformats::PeerId& peer) const {
  return find(Key::for_peer(peer)) != entries_.end();
}

std::size_t RoutingTable::bucket_size(std::size_t index) const {
  const auto [first, last] = bucket_bounds(index);
  return last - first;
}

std::vector<PeerRef> RoutingTable::closest(const Key& target,
                                           std::size_t count) const {
  struct Candidate {
    std::array<std::uint8_t, 32> distance;
    PeerDirectory::Handle peer;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(entries_.size());
  for (const Entry& entry : entries_)
    candidates.push_back({entry.key.distance_to(target), entry.peer});

  const std::size_t take = std::min(count, candidates.size());
  std::partial_sort(candidates.begin(), candidates.begin() + take,
                    candidates.end(),
                    [](const Candidate& a, const Candidate& b) {
                      return a.distance < b.distance;
                    });
  return gather(*directory_, candidates | std::views::take(take) |
                                 std::views::transform(&Candidate::peer));
}

std::vector<PeerRef> RoutingTable::all_peers() const {
  return gather(*directory_, entries_ | std::views::transform(&Entry::peer));
}

}  // namespace ipfs::dht
