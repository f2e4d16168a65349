// Server-side storage for provider records and mutable value records,
// with the paper's expiry semantics (Section 3.1): provider records
// expire after 24 h unless republished (publishers republish every 12 h).
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "dht/key.h"
#include "dht/messages.h"
#include "sim/time.h"

namespace ipfs::dht {

constexpr sim::Duration kProviderExpiry = sim::hours(24);
constexpr sim::Duration kRepublishInterval = sim::hours(12);

class RecordStore {
 public:
  explicit RecordStore(sim::Duration provider_expiry = kProviderExpiry)
      : provider_expiry_(provider_expiry) {}

  // Adds or refreshes a provider record (keyed by provider PeerID).
  void add_provider(const Key& key, ProviderRecord record);

  // Unexpired provider records for `key` as of `now`; expired entries are
  // pruned as a side effect.
  std::vector<ProviderRecord> providers(const Key& key, sim::Time now);

  // Stores `record` unless an entry with a newer sequence exists.
  // Returns true if stored.
  bool put_value(const Key& key, ValueRecord record);
  std::optional<ValueRecord> get_value(const Key& key) const;

  // Drops every provider record older than the expiry (periodic sweep).
  std::size_t expire_providers(sim::Time now);

  // Records past their expiry by more than `slack`, without pruning.
  // Diagnostic: the fuzz harness asserts the periodic sweeps keep
  // staleness bounded even across crash/restart cycles.
  std::size_t stale_provider_count(sim::Time now, sim::Duration slack) const;

  std::size_t provider_key_count() const { return providers_.size(); }

 private:
  sim::Duration provider_expiry_;
  std::unordered_map<Key, std::vector<ProviderRecord>, KeyHasher> providers_;
  std::unordered_map<Key, ValueRecord, KeyHasher> values_;
};

}  // namespace ipfs::dht
