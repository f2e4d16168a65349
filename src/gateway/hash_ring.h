// Consistent-hash ring with bounded loads (Mirrokni et al.), the fleet's
// request router. Each replica owns `vnodes` points on a 64-bit ring; a
// key is served by the successor of its hash. Consistency is the point:
// removing one replica of N moves only that replica's ~1/N of the key
// space, onto the ring successors — everyone else's edge cache stays
// warm. The bounded-load walk additionally skips replicas already at
// 1.25 times the fair share of in-flight requests, so a flash crowd on
// one shard spills to the next point instead of melting its owner.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>

namespace ipfs::gateway {

struct HashRingConfig {
  // Virtual nodes per replica; more points = smoother key-space split.
  std::size_t vnodes = 64;
};

class HashRing {
 public:
  explicit HashRing(HashRingConfig config = {});

  void add_replica(std::size_t replica);
  void remove_replica(std::size_t replica);
  bool contains(std::size_t replica) const { return replicas_.contains(replica); }
  std::size_t replica_count() const { return replicas_.size(); }

  // Ring owner of the key: the replica of the first point at or after
  // key_hash (wrapping). nullopt on an empty ring.
  std::optional<std::size_t> owner(std::uint64_t key_hash) const;

  // Bounded-load pick: walks successor points, skipping replicas whose
  // current load (as reported by `load`) has reached the bound. Falls
  // back to the ring owner when every replica is saturated.
  std::optional<std::size_t> pick(
      std::uint64_t key_hash,
      const std::function<std::uint64_t(std::size_t)>& load,
      std::uint64_t total_load) const;

  // The per-replica load ceiling for a given total (exposed for tests).
  std::uint64_t load_bound(std::uint64_t total_load) const;

 private:
  static std::uint64_t point_hash(std::size_t replica, std::size_t vnode);

  HashRingConfig config_;
  std::map<std::uint64_t, std::size_t> ring_;  // point -> replica
  std::set<std::size_t> replicas_;
};

}  // namespace ipfs::gateway
