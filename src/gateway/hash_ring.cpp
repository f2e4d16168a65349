#include "gateway/hash_ring.h"

#include <cmath>

namespace ipfs::gateway {

namespace {

// A replica accepts a routed request only while its in-flight count is
// below ceil(kBoundedLoadFactor * (total_inflight + 1) / replicas).
constexpr double kBoundedLoadFactor = 1.25;

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

HashRing::HashRing(HashRingConfig config) : config_(config) {}

std::uint64_t HashRing::point_hash(std::size_t replica, std::size_t vnode) {
  // Two mix rounds decorrelate (replica, vnode) pairs; a single round
  // would leave adjacent vnodes of one replica clustered.
  return mix64(mix64(static_cast<std::uint64_t>(replica) + 1) ^
               (static_cast<std::uint64_t>(vnode) * 0xa0761d6478bd642fULL));
}

void HashRing::add_replica(std::size_t replica) {
  if (!replicas_.insert(replica).second) return;
  for (std::size_t v = 0; v < config_.vnodes; ++v)
    ring_.emplace(point_hash(replica, v), replica);
}

void HashRing::remove_replica(std::size_t replica) {
  if (replicas_.erase(replica) == 0) return;
  for (auto it = ring_.begin(); it != ring_.end();) {
    if (it->second == replica)
      it = ring_.erase(it);
    else
      ++it;
  }
}

std::optional<std::size_t> HashRing::owner(std::uint64_t key_hash) const {
  if (ring_.empty()) return std::nullopt;
  const auto it = ring_.lower_bound(key_hash);
  return it != ring_.end() ? it->second : ring_.begin()->second;
}

std::uint64_t HashRing::load_bound(std::uint64_t total_load) const {
  if (replicas_.empty()) return 0;
  const double fair =
      static_cast<double>(total_load + 1) / static_cast<double>(replicas_.size());
  return static_cast<std::uint64_t>(std::ceil(kBoundedLoadFactor * fair));
}

std::optional<std::size_t> HashRing::pick(
    std::uint64_t key_hash,
    const std::function<std::uint64_t(std::size_t)>& load,
    std::uint64_t total_load) const {
  if (ring_.empty()) return std::nullopt;
  const std::uint64_t bound = load_bound(total_load);
  auto it = ring_.lower_bound(key_hash);
  // One full lap is enough: every replica is visited at its first point
  // past the key, after which the fallback applies.
  for (std::size_t step = 0; step < ring_.size(); ++step) {
    if (it == ring_.end()) it = ring_.begin();
    if (load(it->second) < bound) return it->second;
    ++it;
  }
  return owner(key_hash);  // everyone saturated: the owner takes it
}

}  // namespace ipfs::gateway
