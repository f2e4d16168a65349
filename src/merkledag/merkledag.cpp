#include "merkledag/merkledag.h"

#include "multiformats/varint.h"

namespace ipfs::merkledag {

using multiformats::Multicodec;
using multiformats::varint_decode;
using multiformats::varint_encode;

std::vector<std::uint8_t> DagNode::encode() const {
  std::vector<std::uint8_t> out;
  varint_encode(links.size(), out);
  for (const auto& link : links) {
    const auto cid_bytes = link.cid.encode();
    varint_encode(cid_bytes.size(), out);
    out.insert(out.end(), cid_bytes.begin(), cid_bytes.end());
    varint_encode(link.content_size, out);
  }
  varint_encode(data.size(), out);
  out.insert(out.end(), data.begin(), data.end());
  return out;
}

std::optional<DagNode> DagNode::decode(std::span<const std::uint8_t> bytes) {
  DagNode node;
  const auto link_count = varint_decode(bytes);
  if (!link_count) return std::nullopt;
  bytes = bytes.subspan(link_count->consumed);

  for (std::uint64_t i = 0; i < link_count->value; ++i) {
    const auto cid_len = varint_decode(bytes);
    if (!cid_len) return std::nullopt;
    bytes = bytes.subspan(cid_len->consumed);
    if (bytes.size() < cid_len->value) return std::nullopt;
    auto cid = Cid::decode(bytes.subspan(0, cid_len->value));
    if (!cid) return std::nullopt;
    bytes = bytes.subspan(cid_len->value);
    const auto size = varint_decode(bytes);
    if (!size) return std::nullopt;
    bytes = bytes.subspan(size->consumed);
    node.links.push_back(DagLink{std::move(*cid), size->value});
  }

  const auto data_len = varint_decode(bytes);
  if (!data_len) return std::nullopt;
  bytes = bytes.subspan(data_len->consumed);
  if (bytes.size() != data_len->value) return std::nullopt;
  node.data.assign(bytes.begin(), bytes.end());
  return node;
}

std::uint64_t DagNode::total_content_size() const {
  std::uint64_t total = data.size();
  for (const auto& link : links) total += link.content_size;
  return total;
}

std::vector<std::span<const std::uint8_t>> chunk(
    std::span<const std::uint8_t> data, std::size_t chunk_size) {
  std::vector<std::span<const std::uint8_t>> chunks;
  if (data.empty()) {
    chunks.push_back(data);
    return chunks;
  }
  for (std::size_t offset = 0; offset < data.size(); offset += chunk_size)
    chunks.push_back(data.subspan(offset, std::min(chunk_size,
                                                   data.size() - offset)));
  return chunks;
}

namespace {

// Stores a block; counts whether it was new or deduplicated.
void store_block(BlockStore& store, const Block& block, ImportResult& result) {
  if (store.put(block) == blockstore::PutStatus::kStored)
    ++result.new_blocks;
  else
    ++result.deduplicated_blocks;
}

}  // namespace

StreamingImporter::StreamingImporter(BlockStore& store,
                                     std::size_t chunk_size)
    : store_(store), chunk_size_(chunk_size) {}

void StreamingImporter::write(std::span<const std::uint8_t> data) {
  while (!data.empty()) {
    // Fast path: with no partial chunk buffered, full chunks are emitted
    // straight from the caller's span — no copy into buffer_.
    if (buffer_.empty() && data.size() >= chunk_size_) {
      emit_leaf(data.first(chunk_size_));
      data = data.subspan(chunk_size_);
      continue;
    }
    const std::size_t take =
        std::min(chunk_size_ - buffer_.size(), data.size());
    buffer_.insert(buffer_.end(), data.begin(), data.begin() + take);
    data = data.subspan(take);
    if (buffer_.size() == chunk_size_) {
      emit_leaf(buffer_);
      buffer_.clear();
    }
  }
}

void StreamingImporter::emit_leaf(std::span<const std::uint8_t> piece) {
  result_.content_bytes += piece.size();
  ++result_.chunk_count;
  const Block block = Block::from_data(Multicodec::kRaw, piece);
  store_block(store_, block, result_);
  push_link(0, DagLink{block.cid, piece.size()});
}

void StreamingImporter::push_link(std::size_t level, DagLink link) {
  if (levels_.size() <= level) levels_.resize(level + 1);
  levels_[level].push_back(std::move(link));
  // Eager cascade at exactly kMaxLinkDegree links reproduces the batch
  // builder's consecutive grouping, level by level.
  if (levels_[level].size() == kMaxLinkDegree) collapse_level(level);
}

void StreamingImporter::collapse_level(std::size_t level) {
  DagNode node;
  node.links = std::move(levels_[level]);
  levels_[level].clear();
  const std::uint64_t subtree_size = node.total_content_size();
  const Block block = Block::from_data(Multicodec::kDagPb, node.encode());
  store_block(store_, block, result_);
  push_link(level + 1, DagLink{block.cid, subtree_size});
}

ImportResult StreamingImporter::finish() {
  if (finished_) return result_;
  finished_ = true;

  // Tail chunk; empty content is one empty chunk (matches chunk()).
  if (!buffer_.empty() || result_.chunk_count == 0) {
    emit_leaf(buffer_);
    buffer_.clear();
  }

  // Single raw chunk: the block itself is the object (raw-leaves style).
  if (levels_.size() == 1 && levels_[0].size() == 1) {
    result_.root = levels_[0][0].cid;
    return result_;
  }

  // Collapse the pending remainder of each level bottom-up. A level's
  // remainder becomes one parent — even a single link gets a parent when
  // a higher level exists, exactly like the batch builder's last group.
  for (std::size_t level = 0; level < levels_.size(); ++level) {
    if (levels_[level].empty()) continue;
    const bool top = level + 1 == levels_.size();
    if (top && levels_[level].size() == 1) {
      result_.root = levels_[level][0].cid;
      return result_;
    }
    collapse_level(level);
  }
  // Unreachable: collapse_level always extends levels_ with a final
  // single-link top level.
  return result_;
}

ImportResult import_bytes(BlockStore& store,
                          std::span<const std::uint8_t> data,
                          std::size_t chunk_size) {
  StreamingImporter importer(store, chunk_size);
  importer.write(data);
  return importer.finish();
}

namespace {

// Hands `visit` the content bytes below `cid` in order: raw leaf bytes
// and each dag node's data. False when a block is missing or fails to
// decode; cat and content_size read the same blocks through it.
template <typename Visit>
bool walk_content(const BlockStore& store, const Cid& cid, Visit& visit) {
  const auto block = store.get(cid);
  if (!block) return false;
  if (cid.content_codec() == Multicodec::kRaw) {
    visit(std::span<const std::uint8_t>(*block));
    return true;
  }
  const auto node = DagNode::decode(*block);
  if (!node) return false;
  visit(std::span<const std::uint8_t>(node->data));
  for (const auto& link : node->links)
    if (!walk_content(store, link.cid, visit)) return false;
  return true;
}

bool enumerate_recursive(const BlockStore& store, const Cid& cid,
                         std::vector<Cid>& out) {
  const auto block = store.get(cid);
  if (!block) return false;
  out.push_back(cid);
  if (cid.content_codec() == Multicodec::kRaw) return true;
  const auto node = DagNode::decode(*block);
  if (!node) return false;
  for (const auto& link : node->links)
    if (!enumerate_recursive(store, link.cid, out)) return false;
  return true;
}

}  // namespace

std::optional<std::vector<std::uint8_t>> cat(const BlockStore& store,
                                             const Cid& root) {
  std::vector<std::uint8_t> out;
  auto append = [&out](std::span<const std::uint8_t> bytes) {
    out.insert(out.end(), bytes.begin(), bytes.end());
  };
  if (!walk_content(store, root, append)) return std::nullopt;
  return out;
}

std::optional<std::uint64_t> content_size(const BlockStore& store,
                                          const Cid& root) {
  std::uint64_t total = 0;
  auto add = [&total](std::span<const std::uint8_t> bytes) {
    total += bytes.size();
  };
  if (!walk_content(store, root, add)) return std::nullopt;
  return total;
}

std::optional<std::vector<Cid>> enumerate(const BlockStore& store,
                                          const Cid& root) {
  std::vector<Cid> out;
  if (!enumerate_recursive(store, root, out)) return std::nullopt;
  return out;
}

}  // namespace ipfs::merkledag
