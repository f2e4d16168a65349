#include "blockstore/persist/persistent_store.h"

#include <algorithm>
#include <array>
#include <cstdio>

namespace ipfs::blockstore::persist {
namespace {

constexpr std::uint32_t kRecordMagic = 0x4B504249;  // "IPBK"
constexpr std::size_t kHeaderBytes = 17;  // magic + kind + 2 lengths + crc
constexpr std::uint8_t kKindPut = 1;
constexpr std::uint8_t kKindRemove = 2;
constexpr std::uint8_t kKindPin = 3;
constexpr std::uint8_t kKindUnpin = 4;
// Sanity caps on untrusted (possibly corrupt) length fields: anything
// beyond these marks the crash frontier, same as a bad CRC.
constexpr std::uint32_t kMaxCidBytes = 256;
constexpr std::uint32_t kMaxDataBytes = 64u * 1024 * 1024;
constexpr const char* kPinJournal = "pins.log";

std::uint32_t crc32(std::span<const std::uint8_t> first,
                    std::span<const std::uint8_t> second = {}) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const auto part : {first, second})
    for (const std::uint8_t byte : part)
      crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(std::uint8_t(v >> (8 * i)));
}

std::uint32_t read_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t(p[i]) << (8 * i);
  return v;
}

std::vector<std::uint8_t> encode_record(std::uint8_t kind, const Cid& cid,
                                        std::span<const std::uint8_t> data) {
  const auto cid_bytes = cid.encode();
  std::vector<std::uint8_t> record;
  record.reserve(kHeaderBytes + cid_bytes.size() + data.size());
  put_u32(record, kRecordMagic);
  record.push_back(kind);
  put_u32(record, static_cast<std::uint32_t>(cid_bytes.size()));
  put_u32(record, static_cast<std::uint32_t>(data.size()));
  put_u32(record, crc32(cid_bytes, data));
  record.insert(record.end(), cid_bytes.begin(), cid_bytes.end());
  record.insert(record.end(), data.begin(), data.end());
  return record;
}

std::uint64_t mix64(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a ^ (b * 0x9e3779b97f4a7c15ULL);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

PersistentBlockStore::PersistentBlockStore(std::unique_ptr<Storage> storage,
                                           const StoreConfig& config,
                                           metrics::Registry* metrics)
    : storage_(std::move(storage)), config_(config), metrics_(metrics) {
  open();
}

std::string PersistentBlockStore::segment_name(std::uint32_t id) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "seg-%08u.log", id);
  return buf;
}

metrics::Counter* PersistentBlockStore::counter(const char* name) const {
  return metrics_ ? &metrics_->counter(name) : nullptr;
}

void PersistentBlockStore::append_record(const std::string& file,
                                         std::uint8_t kind, const Cid& cid,
                                         std::span<const std::uint8_t> data) {
  storage_->append(file, encode_record(kind, cid, data));
  dirty_files_.insert(file);
}

PersistentBlockStore::Location PersistentBlockStore::append_to_segment(
    std::uint8_t kind, const Cid& cid, std::span<const std::uint8_t> data) {
  if (current_bytes_ > 0 && current_bytes_ >= config_.segment_bytes) {
    ++current_segment_;
    current_bytes_ = 0;
  }
  const std::string file = segment_name(current_segment_);
  const auto record = encode_record(kind, cid, data);
  // The store is the only writer of its current segment, so it keeps the
  // segment's length itself; only a failed append asks the storage.
  if (storage_->append(file, record)) {
    current_bytes_ += record.size();
  } else {
    current_bytes_ = storage_->size(file);
  }
  dirty_files_.insert(file);
  segments_.insert(current_segment_);
  return Location{current_segment_, current_bytes_ - data.size(),
                  static_cast<std::uint32_t>(data.size())};
}

PutStatus PersistentBlockStore::put(const Block& block) {
  const auto& [cid, data] = block;
  if (index_.contains(cid)) return PutStatus::kAlreadyPresent;

  index_.emplace(cid, append_to_segment(kKindPut, cid, *data));
  total_bytes_ += data->size();
  if (auto* c = counter("blockstore.put.blocks")) c->inc();
  if (auto* c = counter("blockstore.put.bytes")) c->inc(data->size());
  return PutStatus::kStored;
}

BlockData PersistentBlockStore::get(const Cid& cid) const {
  const auto it = index_.find(cid);
  if (it == index_.end()) return nullptr;
  auto payload = std::make_shared<std::vector<std::uint8_t>>();
  if (!storage_->read_at(segment_name(it->second.segment), it->second.offset,
                         it->second.length, *payload))
    return nullptr;
  if (auto* c = counter("blockstore.read.blocks")) c->inc();
  return payload;
}

bool PersistentBlockStore::has(const Cid& cid) const {
  return index_.contains(cid);
}

bool PersistentBlockStore::remove(const Cid& cid) {
  if (pinned(cid)) return false;
  const auto it = index_.find(cid);
  if (it == index_.end()) return false;
  append_to_segment(kKindRemove, cid, {});
  total_bytes_ -= it->second.length;
  index_.erase(it);
  return true;
}

void PersistentBlockStore::pin(const Cid& cid) {
  if (pinned_.insert(cid).second) append_record(kPinJournal, kKindPin, cid, {});
}

void PersistentBlockStore::unpin(const Cid& cid) {
  if (pinned_.erase(cid) > 0) append_record(kPinJournal, kKindUnpin, cid, {});
}

bool PersistentBlockStore::pinned(const Cid& cid) const {
  return pinned_.contains(cid);
}

std::uint64_t PersistentBlockStore::collect_garbage() {
  // Phase 1: drop unpinned entries from the index.
  std::uint64_t reclaimed = 0;
  for (auto it = index_.begin(); it != index_.end();) {
    if (pinned_.contains(it->first)) {
      ++it;
      continue;
    }
    reclaimed += it->second.length;
    total_bytes_ -= it->second.length;
    it = index_.erase(it);
  }

  // Phase 2: compaction — rewrite the survivors into fresh segments so
  // the dead records' bytes actually leave the storage. Payloads are
  // pulled one at a time; peak extra memory is one block.
  std::vector<std::pair<Cid, std::vector<std::uint8_t>>> survivors;
  survivors.reserve(index_.size());
  for (const auto& [cid, loc] : index_) {
    std::vector<std::uint8_t> payload;
    if (storage_->read_at(segment_name(loc.segment), loc.offset, loc.length,
                          payload))
      survivors.emplace_back(cid, std::move(payload));
  }
  for (const std::uint32_t id : segments_)
    storage_->remove(segment_name(id));
  for (const std::uint32_t id : segments_) {
    dirty_files_.erase(segment_name(id));
  }
  segments_.clear();
  ++current_segment_;  // never reuse a deleted segment's name
  current_bytes_ = 0;
  index_.clear();
  total_bytes_ = 0;

  for (auto& [cid, payload] : survivors) {
    index_.emplace(cid, append_to_segment(kKindPut, cid, payload));
    total_bytes_ += payload.size();
  }

  // The pin journal compacts too: one pin record per live pin.
  storage_->remove(kPinJournal);
  dirty_files_.erase(kPinJournal);
  for (const Cid& cid : pinned_) append_record(kPinJournal, kKindPin, cid, {});

  flush();
  if (auto* c = counter("blockstore.compact.runs")) c->inc();
  if (auto* c = counter("blockstore.compact.reclaimed_bytes"))
    c->inc(reclaimed);
  return reclaimed;
}

void PersistentBlockStore::flush() {
  for (const auto& file : dirty_files_) {
    storage_->sync(file);
    if (auto* c = counter("blockstore.fsync.count")) c->inc();
  }
  dirty_files_.clear();
}

std::uint64_t PersistentBlockStore::scan_log(
    const std::string& file,
    const std::function<void(std::uint8_t, Cid, std::uint64_t,
                             std::uint32_t)>& apply) {
  std::vector<std::uint8_t> bytes;
  if (!storage_->read_all(file, bytes)) return 0;
  std::uint64_t pos = 0;
  while (bytes.size() - pos >= kHeaderBytes) {
    const std::uint8_t* header = bytes.data() + pos;
    const std::uint32_t magic = read_u32(header);
    const std::uint8_t kind = header[4];
    const std::uint32_t cid_len = read_u32(header + 5);
    const std::uint32_t data_len = read_u32(header + 9);
    const std::uint32_t crc = read_u32(header + 13);
    if (magic != kRecordMagic || kind < kKindPut || kind > kKindUnpin ||
        cid_len > kMaxCidBytes || data_len > kMaxDataBytes)
      break;
    const std::uint64_t body = std::uint64_t(cid_len) + data_len;
    if (bytes.size() - pos - kHeaderBytes < body) break;  // torn tail
    const std::span<const std::uint8_t> cid_bytes(
        bytes.data() + pos + kHeaderBytes, cid_len);
    const std::span<const std::uint8_t> payload(
        bytes.data() + pos + kHeaderBytes + cid_len, data_len);
    if (crc32(cid_bytes, payload) != crc) break;  // torn/corrupt record
    auto cid = Cid::decode(cid_bytes);
    if (!cid) break;
    apply(kind, std::move(*cid), pos + kHeaderBytes + cid_len, data_len);
    pos += kHeaderBytes + body;
  }
  const std::uint64_t truncated = bytes.size() - pos;
  if (truncated > 0) storage_->truncate(file, pos);
  return truncated;
}

void PersistentBlockStore::open() {
  index_.clear();
  pinned_.clear();
  segments_.clear();
  total_bytes_ = 0;
  dirty_files_.clear();
  recovered_truncated_bytes_ = 0;

  for (const auto& name : storage_->list()) {
    unsigned id = 0;
    if (std::sscanf(name.c_str(), "seg-%8u.log", &id) != 1) continue;
    segments_.insert(id);
  }
  // std::set iterates ascending: segments replay in append order.
  for (const std::uint32_t id : segments_) {
    const std::string file = segment_name(id);
    recovered_truncated_bytes_ += scan_log(
        file, [this, id](std::uint8_t kind, Cid cid, std::uint64_t offset,
                         std::uint32_t len) {
          if (kind == kKindPut) {
            Location loc;
            loc.segment = id;
            loc.offset = offset;
            loc.length = len;
            const auto [it, inserted] = index_.emplace(std::move(cid), loc);
            if (inserted) {
              total_bytes_ += len;
            } else {
              // A later duplicate put of the same CID (possible when a
              // crash lost the index but not the log): newest wins.
              total_bytes_ -= it->second.length;
              it->second = loc;
              total_bytes_ += len;
            }
          } else if (kind == kKindRemove) {
            const auto it = index_.find(cid);
            if (it != index_.end()) {
              total_bytes_ -= it->second.length;
              index_.erase(it);
            }
          }
        });
  }
  recovered_truncated_bytes_ +=
      scan_log(kPinJournal, [this](std::uint8_t kind, Cid cid, std::uint64_t,
                                   std::uint32_t) {
        if (kind == kKindPin) pinned_.insert(std::move(cid));
        else if (kind == kKindUnpin) pinned_.erase(cid);
      });
  // A truncated segment may be mid-range; never append into old files.
  current_segment_ = segments_.empty() ? 0 : *segments_.rbegin() + 1;
  current_bytes_ = 0;
  // So no later flush() syncs the old segments, yet a later put of a
  // block they hold (kAlreadyPresent), or a pin the journal already
  // holds, counts on that flush all the same: recovery makes what it
  // kept durable.
  for (const std::uint32_t id : segments_) storage_->sync(segment_name(id));
  storage_->sync(kPinJournal);

  if (auto* c = counter("blockstore.recover.blocks")) c->inc(index_.size());
  if (auto* c = counter("blockstore.recover.truncated_bytes"))
    c->inc(recovered_truncated_bytes_);
}

void PersistentBlockStore::handle_crash() {
  ++crashes_;
  storage_->drop_unsynced(mix64(config_.crash_seed, crashes_));
  open();
}

}  // namespace ipfs::blockstore::persist
