#include <gtest/gtest.h>

#include "merkledag/merkledag.h"
#include "sim/rng.h"

namespace ipfs::merkledag {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

TEST(ChunkerTest, SplitsAtChunkBoundaries) {
  const auto data = random_bytes(1000, 1);
  const auto chunks = chunk(data, 256);
  ASSERT_EQ(chunks.size(), 4u);
  EXPECT_EQ(chunks[0].size(), 256u);
  EXPECT_EQ(chunks[3].size(), 232u);
}

TEST(ChunkerTest, ExactMultipleHasNoRemainder) {
  const auto data = random_bytes(512, 2);
  const auto chunks = chunk(data, 256);
  ASSERT_EQ(chunks.size(), 2u);
  EXPECT_EQ(chunks[1].size(), 256u);
}

TEST(ChunkerTest, EmptyInputYieldsOneEmptyChunk) {
  const auto chunks = chunk({}, 256);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_TRUE(chunks[0].empty());
}

TEST(DagNodeTest, EncodeDecodeRoundTrip) {
  DagNode node;
  node.data = {1, 2, 3};
  node.links.push_back(
      {Cid::from_data(multiformats::Multicodec::kRaw, node.data), 3});
  node.links.push_back(
      {Cid::from_data(multiformats::Multicodec::kDagPb, node.data), 7});
  const auto decoded = DagNode::decode(node.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->data, node.data);
  ASSERT_EQ(decoded->links.size(), 2u);
  EXPECT_EQ(decoded->links[0].cid, node.links[0].cid);
  EXPECT_EQ(decoded->links[1].content_size, 7u);
}

TEST(DagNodeTest, DecodeRejectsTruncation) {
  DagNode node;
  node.data = random_bytes(50, 3);
  auto encoded = node.encode();
  encoded.pop_back();
  EXPECT_FALSE(DagNode::decode(encoded).has_value());
}

TEST(ImportTest, SingleChunkBecomesRawBlock) {
  BlockStore store;
  const auto data = random_bytes(1024, 4);
  const auto result = import_bytes(store, data, kDefaultChunkSize);
  EXPECT_EQ(result.chunk_count, 1u);
  EXPECT_EQ(result.new_blocks, 1u);
  EXPECT_EQ(result.root.content_codec(), multiformats::Multicodec::kRaw);
  EXPECT_EQ(cat(store, result.root), data);
  EXPECT_EQ(content_size(store, result.root),
            std::optional<std::uint64_t>(data.size()));
}

TEST(ImportTest, MultiChunkBuildsDag) {
  BlockStore store;
  const auto data = random_bytes(700 * 1024, 5);  // 3 chunks at 256 kB
  const auto result = import_bytes(store, data);
  EXPECT_EQ(result.chunk_count, 3u);
  EXPECT_EQ(result.new_blocks, 4u);  // 3 leaves + 1 root
  EXPECT_EQ(result.root.content_codec(), multiformats::Multicodec::kDagPb);
  EXPECT_EQ(cat(store, result.root), data);
}

TEST(ImportTest, PaperObjectSizeHasTwoChunks) {
  // The paper's performance experiments use 0.5 MB objects (Section 4.3).
  BlockStore store;
  const auto data = random_bytes(512 * 1024, 6);
  const auto result = import_bytes(store, data);
  EXPECT_EQ(result.chunk_count, 2u);
  EXPECT_EQ(cat(store, result.root), data);
}

TEST(ImportTest, IdenticalChunksDeduplicate) {
  BlockStore store;
  // Two chunk-sized repetitions of identical bytes.
  std::vector<std::uint8_t> data(2 * kDefaultChunkSize, 0xab);
  const auto result = import_bytes(store, data);
  EXPECT_EQ(result.chunk_count, 2u);
  EXPECT_EQ(result.deduplicated_blocks, 1u);
  EXPECT_EQ(result.new_blocks, 2u);  // one unique leaf + root
  EXPECT_EQ(cat(store, result.root), data);
}

TEST(ImportTest, SameContentYieldsSameRootAcrossStores) {
  BlockStore store_a, store_b;
  const auto data = random_bytes(600 * 1024, 7);
  EXPECT_EQ(import_bytes(store_a, data).root, import_bytes(store_b, data).root);
}

TEST(ImportTest, DifferentContentYieldsDifferentRoot) {
  BlockStore store;
  auto data = random_bytes(600 * 1024, 8);
  const auto root_a = import_bytes(store, data).root;
  data[0] ^= 1;
  const auto root_b = import_bytes(store, data).root;
  EXPECT_NE(root_a, root_b);
}

TEST(ImportTest, WideDagGetsMultipleLevels) {
  BlockStore store;
  // More chunks than kMaxLinkDegree forces a two-level interior.
  const std::size_t chunk_size = 64;
  const auto data = random_bytes(chunk_size * (kMaxLinkDegree + 10), 9);
  const auto result = import_bytes(store, data, chunk_size);
  EXPECT_EQ(result.chunk_count, kMaxLinkDegree + 10);
  EXPECT_EQ(cat(store, result.root), data);
  EXPECT_EQ(content_size(store, result.root),
            std::optional<std::uint64_t>(data.size()));

  const auto cids = enumerate(store, result.root);
  ASSERT_TRUE(cids.has_value());
  // root + 2 interior nodes + leaves
  EXPECT_EQ(cids->size(), 1 + 2 + kMaxLinkDegree + 10);
}

TEST(CatTest, FailsOnMissingBlocks) {
  BlockStore store;
  const auto data = random_bytes(700 * 1024, 10);
  const auto result = import_bytes(store, data);
  const auto cids = enumerate(store, result.root);
  ASSERT_TRUE(cids.has_value());
  ASSERT_EQ(content_size(store, result.root),
            std::optional<std::uint64_t>(data.size()));
  // Remove one leaf; cat must fail rather than return partial data, and
  // content_size must not count a partial DAG.
  store.remove(cids->back());
  EXPECT_FALSE(cat(store, result.root).has_value());
  EXPECT_EQ(content_size(store, result.root), std::nullopt);
  EXPECT_FALSE(enumerate(store, result.root).has_value());
}

TEST(EnumerateTest, RootFirstOrder) {
  BlockStore store;
  const auto data = random_bytes(700 * 1024, 11);
  const auto result = import_bytes(store, data);
  const auto cids = enumerate(store, result.root);
  ASSERT_TRUE(cids.has_value());
  EXPECT_EQ(cids->front(), result.root);
}


// ---- StreamingImporter equivalence ---------------------------------------
// The streaming builder must produce the byte-identical DAG (same root,
// same block set) as the one-shot import, for any write() segmentation.

TEST(StreamingTest, MatchesBatchAcrossPieceSizes) {
  const std::size_t chunk_size = 1024;
  for (const std::size_t total :
       {std::size_t{0}, std::size_t{1}, std::size_t{1023}, std::size_t{1024},
        std::size_t{1025}, std::size_t{10 * 1024 + 13},
        std::size_t{300 * 1024}}) {
    const auto data = random_bytes(total, 40 + total);
    BlockStore batch_store;
    const auto batch = import_bytes(batch_store, data, chunk_size);

    for (const std::size_t piece :
         {std::size_t{1}, std::size_t{7}, std::size_t{1024},
          std::size_t{4096 + 1}, total + 1}) {
      BlockStore stream_store;
      StreamingImporter importer(stream_store, chunk_size);
      for (std::size_t off = 0; off < data.size(); off += piece)
        importer.write(std::span(data).subspan(
            off, std::min(piece, data.size() - off)));
      const auto streamed = importer.finish();
      EXPECT_EQ(streamed.root, batch.root)
          << "total=" << total << " piece=" << piece;
      EXPECT_EQ(streamed.chunk_count, batch.chunk_count);
      EXPECT_EQ(streamed.content_bytes, batch.content_bytes);
      EXPECT_EQ(stream_store.block_count(), batch_store.block_count());
      EXPECT_EQ(cat(stream_store, streamed.root), data);
    }
  }
}

TEST(StreamingTest, MatchesBatchAtLinkDegreeBoundaries) {
  // 174 leaves fill exactly one internal node; 175 force a second level
  // whose remainder handling is the subtle case the cascade must match.
  const std::size_t chunk_size = 256;
  for (const std::size_t leaves :
       {kMaxLinkDegree - 1, kMaxLinkDegree, kMaxLinkDegree + 1,
        2 * kMaxLinkDegree, 2 * kMaxLinkDegree + 1}) {
    const auto data = random_bytes(leaves * chunk_size, 50 + leaves);
    BlockStore batch_store;
    const auto batch = import_bytes(batch_store, data, chunk_size);

    BlockStore stream_store;
    StreamingImporter importer(stream_store, chunk_size);
    // Deliberately misaligned pieces.
    const std::size_t piece = chunk_size * 3 + 17;
    for (std::size_t off = 0; off < data.size(); off += piece)
      importer.write(std::span(data).subspan(
          off, std::min(piece, data.size() - off)));
    const auto streamed = importer.finish();
    EXPECT_EQ(streamed.root, batch.root) << "leaves=" << leaves;
    EXPECT_EQ(stream_store.block_count(), batch_store.block_count());
    EXPECT_EQ(cat(stream_store, streamed.root), data);
  }
}

TEST(StreamingTest, DeduplicatesLikeBatch) {
  // Repeating chunks dedupe identically in both builders.
  const std::size_t chunk_size = 512;
  std::vector<std::uint8_t> data;
  const auto unit = random_bytes(chunk_size, 60);
  for (int i = 0; i < 8; ++i) data.insert(data.end(), unit.begin(), unit.end());

  BlockStore batch_store;
  const auto batch = import_bytes(batch_store, data, chunk_size);
  BlockStore stream_store;
  StreamingImporter importer(stream_store, chunk_size);
  importer.write(data);
  const auto streamed = importer.finish();
  EXPECT_EQ(streamed.root, batch.root);
  EXPECT_EQ(streamed.deduplicated_blocks, batch.deduplicated_blocks);
  EXPECT_EQ(streamed.new_blocks, batch.new_blocks);
}

}  // namespace
}  // namespace ipfs::merkledag
