#include "blockstore/blockstore.h"

namespace ipfs::blockstore {

Block Block::from_data(multiformats::Multicodec codec,
                       std::span<const std::uint8_t> data) {
  return Block(Cid::from_data(codec, data),
               std::make_shared<const std::vector<std::uint8_t>>(
                   data.begin(), data.end()));
}

std::optional<Block> Block::verify(const Cid& cid, BlockData data) {
  if (data == nullptr || !cid.hash().verifies(*data)) return std::nullopt;
  return Block(cid, std::move(data));
}

PutStatus BlockStore::put(const Block& block) {
  const auto [it, inserted] = blocks_.try_emplace(block.cid, block.data);
  if (!inserted) return PutStatus::kAlreadyPresent;
  total_bytes_ += it->second->size();
  return PutStatus::kStored;
}

BlockData BlockStore::get(const Cid& cid) const {
  const auto it = blocks_.find(cid);
  if (it == blocks_.end()) return nullptr;
  return it->second;
}

bool BlockStore::has(const Cid& cid) const { return blocks_.contains(cid); }

bool BlockStore::remove(const Cid& cid) {
  if (pinned(cid)) return false;
  const auto it = blocks_.find(cid);
  if (it == blocks_.end()) return false;
  total_bytes_ -= it->second->size();
  blocks_.erase(it);
  return true;
}

void BlockStore::pin(const Cid& cid) { pinned_.insert(cid); }

void BlockStore::unpin(const Cid& cid) { pinned_.erase(cid); }

bool BlockStore::pinned(const Cid& cid) const {
  return pinned_.contains(cid);
}

std::uint64_t BlockStore::collect_garbage() {
  std::uint64_t reclaimed = 0;
  for (auto it = blocks_.begin(); it != blocks_.end();) {
    if (pinned(it->first)) {
      ++it;
      continue;
    }
    reclaimed += it->second->size();
    total_bytes_ -= it->second->size();
    it = blocks_.erase(it);
  }
  return reclaimed;
}

namespace {

// Share of an LruBlockStore's byte capacity reserved for the protected
// segment (the entries hit at least once since insertion).
constexpr double kProtectedShare = 0.8;
// Distinct hot keys the TinyLFU sketch is sized for.
constexpr std::size_t kSketchEntries = 4096;

}  // namespace

LruBlockStore::LruBlockStore(std::uint64_t capacity_bytes, LruConfig config)
    : capacity_(capacity_bytes),
      protected_capacity_(static_cast<std::uint64_t>(
          static_cast<double>(capacity_bytes) * kProtectedShare)) {
  if (config.tinylfu) sketch_.emplace(kSketchEntries);
}

bool LruBlockStore::put(const Cid& cid, std::uint64_t bytes) {
  if (bytes > capacity_) return false;

  const std::uint64_t key_hash = sketch_ ? cid_hash64(cid) : 0;
  if (sketch_) sketch_->record(key_hash);

  const auto it = entries_.find(cid);
  if (it != entries_.end()) {
    // Content is immutable so the size is identical: a re-put is a hit
    // (refresh + promote) and must leave the byte accounting untouched.
    touch(cid, it->second);
    return true;
  }

  if (!make_room(bytes, key_hash)) return false;

  used_ += bytes;
  probation_.push_front(cid);
  entries_.emplace(cid, Entry{bytes, probation_.begin(), false});
  return true;
}

std::optional<std::uint64_t> LruBlockStore::get(const Cid& cid) {
  const auto it = entries_.find(cid);
  if (sketch_) sketch_->record(cid_hash64(cid));
  if (it == entries_.end()) return std::nullopt;
  touch(cid, it->second);
  return it->second.bytes;
}

bool LruBlockStore::has(const Cid& cid) const { return entries_.contains(cid); }

void LruBlockStore::touch(const Cid& cid, Entry& entry) {
  if (entry.protected_segment) {
    protected_.erase(entry.recency);
    protected_.push_front(cid);
    entry.recency = protected_.begin();
    return;
  }
  // Promotion: probation -> protected. Protected overflow demotes its
  // coldest entries back to probation (MRU side: they were hit recently,
  // just not as recently as the rest of the protected segment).
  probation_.erase(entry.recency);
  protected_.push_front(cid);
  entry.recency = protected_.begin();
  entry.protected_segment = true;
  protected_bytes_ += entry.bytes;
  while (protected_bytes_ > protected_capacity_ && !protected_.empty()) {
    const Cid demoted = protected_.back();
    Entry& demoted_entry = entries_.find(demoted)->second;
    if (!demoted_entry.protected_segment) break;  // defensive; cannot happen
    protected_.pop_back();
    probation_.push_front(demoted);
    demoted_entry.recency = probation_.begin();
    demoted_entry.protected_segment = false;
    protected_bytes_ -= demoted_entry.bytes;
    if (demoted == cid) break;  // the promoted entry itself overflowed
  }
}

bool LruBlockStore::make_room(std::uint64_t incoming_size,
                              std::uint64_t candidate_hash) {
  while (used_ + incoming_size > capacity_) {
    if (sketch_) {
      const Cid& victim =
          !probation_.empty() ? probation_.back() : protected_.back();
      // TinyLFU admission: only evict for a candidate at least as hot as
      // the victim; otherwise the one-hit wonder is the one refused.
      if (sketch_->estimate(candidate_hash) <
          sketch_->estimate(cid_hash64(victim))) {
        ++admission_rejections_;
        return false;
      }
    }
    evict_one();
  }
  return true;
}

void LruBlockStore::evict_one() {
  // Probationary entries go first; the protected segment is only drained
  // when probation is empty.
  const bool from_probation = !probation_.empty();
  std::list<Cid>& segment = from_probation ? probation_ : protected_;
  const Cid victim = segment.back();
  segment.pop_back();
  const auto it = entries_.find(victim);
  used_ -= it->second.bytes;
  if (!from_probation) protected_bytes_ -= it->second.bytes;
  entries_.erase(it);
  ++evictions_;
}

}  // namespace ipfs::blockstore
