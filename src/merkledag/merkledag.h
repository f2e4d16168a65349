// Merkle-DAG layer (paper Section 2.1): content is split into chunks
// (default 256 kB), each chunk gets its own CID, and a balanced DAG of
// dag-pb-like nodes links them, with the root CID naming the whole object.
// Identical chunks deduplicate through the content-addressed block store.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "blockstore/blockstore.h"
#include "multiformats/cid.h"

namespace ipfs::merkledag {

using blockstore::Block;
using blockstore::BlockStore;
using multiformats::Cid;

// Default chunk size used when content is added to IPFS (Section 2.1).
constexpr std::size_t kDefaultChunkSize = 256 * 1024;

// Maximum children per internal DAG node (the go-ipfs balanced builder
// default of 174 links).
constexpr std::size_t kMaxLinkDegree = 174;

struct DagLink {
  Cid cid;
  std::uint64_t content_size = 0;  // cumulative payload below this link
};

// A node of the DAG: either a leaf (raw chunk, no links) or an internal
// node (links only). Encoded with a compact deterministic binary format
// standing in for dag-pb.
struct DagNode {
  std::vector<DagLink> links;
  std::vector<std::uint8_t> data;

  std::vector<std::uint8_t> encode() const;
  static std::optional<DagNode> decode(std::span<const std::uint8_t> bytes);

  std::uint64_t total_content_size() const;
};

struct ImportResult {
  Cid root;
  std::size_t chunk_count = 0;
  std::size_t new_blocks = 0;          // blocks actually written
  std::size_t deduplicated_blocks = 0; // chunks that already existed
  std::uint64_t content_bytes = 0;
};

// Splits `data` into fixed-size chunks. Exposed separately for tests.
std::vector<std::span<const std::uint8_t>> chunk(
    std::span<const std::uint8_t> data, std::size_t chunk_size);

// Incremental DAG builder: feed bytes in arbitrary-size pieces via
// write(), close with finish(). Blocks stream into the store as soon as
// a chunk or a full 174-link level fills, so a multi-GB import holds at
// most one chunk plus O(log n) levels of pending links in memory — the
// whole object is never materialized.
//
// The resulting DAG (and root CID) is byte-identical to import_bytes on
// the concatenated input: chunk boundaries are positional and the
// balanced builder groups consecutive links, so cascading eagerly
// produces exactly the batch grouping.
class StreamingImporter {
 public:
  explicit StreamingImporter(BlockStore& store,
                             std::size_t chunk_size = kDefaultChunkSize);

  void write(std::span<const std::uint8_t> data);

  // Flushes the partial tail chunk and collapses the pending levels into
  // the root. Call exactly once; write() is invalid afterwards.
  ImportResult finish();

 private:
  void emit_leaf(std::span<const std::uint8_t> piece);
  void push_link(std::size_t level, DagLink link);
  // Builds one internal node from the pending links of `level`.
  void collapse_level(std::size_t level);

  BlockStore& store_;
  std::size_t chunk_size_;
  std::vector<std::uint8_t> buffer_;  // partial chunk, < chunk_size_
  std::vector<std::vector<DagLink>> levels_;  // [0] = leaves, ascending
  ImportResult result_;
  bool finished_ = false;
};

// Imports content into `store`, building the Merkle DAG and returning its
// root CID. Single-chunk content becomes one raw block (raw-leaves style).
// One-shot convenience over StreamingImporter.
ImportResult import_bytes(BlockStore& store, std::span<const std::uint8_t> data,
                          std::size_t chunk_size = kDefaultChunkSize);

// Reassembles the full content below `root`, or nullopt if any block is
// missing or fails to decode. Hashes nothing: every stored block was
// checked once, by Block::from_data or Block::verify, on its way in.
std::optional<std::vector<std::uint8_t>> cat(const BlockStore& store,
                                             const Cid& root);

// The byte count cat would return, or nullopt where cat fails: the same
// walk over the same block reads, summing raw leaf bytes and dag node
// data instead of copying them. For callers that need to know an object
// is complete, or how large it is, but not its bytes.
std::optional<std::uint64_t> content_size(const BlockStore& store,
                                          const Cid& root);

// All block CIDs reachable from `root` (root first, depth-first), or
// nullopt if the DAG is incomplete in `store`.
std::optional<std::vector<Cid>> enumerate(const BlockStore& store,
                                          const Cid& root);

}  // namespace ipfs::merkledag
