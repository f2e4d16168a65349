#include <gtest/gtest.h>

#include "blockstore/blockstore.h"

namespace ipfs::blockstore {
namespace {

using multiformats::Multicodec;

std::vector<std::uint8_t> bytes_of(std::string_view s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

// A distinct CID per name, for the size-only LRU tests.
Cid cid_of(std::string_view name) {
  return Cid::from_data(Multicodec::kRaw, bytes_of(name));
}

TEST(BlockStoreTest, PutGetRoundTrip) {
  BlockStore store;
  const auto block = Block::from_data(Multicodec::kRaw, bytes_of("data"));
  EXPECT_EQ(store.put(block), PutStatus::kStored);
  const auto fetched = store.get(block.cid);
  ASSERT_TRUE(fetched != nullptr);
  EXPECT_EQ(*fetched, bytes_of("data"));
  EXPECT_EQ(store.block_count(), 1u);
  EXPECT_EQ(store.total_bytes(), 4u);
}

TEST(BlockStoreTest, DuplicatePutIsDeduplicated) {
  BlockStore store;
  const auto block = Block::from_data(Multicodec::kRaw, bytes_of("same"));
  EXPECT_EQ(store.put(block), PutStatus::kStored);
  EXPECT_EQ(store.put(block), PutStatus::kAlreadyPresent);
  EXPECT_EQ(store.block_count(), 1u);
  EXPECT_EQ(store.total_bytes(), 4u);
}

TEST(BlockStoreTest, RejectsCidMismatch) {
  // A store trusts the Block it is handed, so the check happens in
  // Block::verify: bytes that do not hash to the CID never become a Block.
  const auto block = Block::from_data(Multicodec::kRaw, bytes_of("original"));
  const auto tampered =
      std::make_shared<const std::vector<std::uint8_t>>(bytes_of("tampered!"));
  EXPECT_FALSE(Block::verify(block.cid, tampered).has_value());
  EXPECT_FALSE(Block::verify(block.cid, nullptr).has_value());
  const auto checked = Block::verify(block.cid, block.data);
  ASSERT_TRUE(checked.has_value());
  EXPECT_EQ(checked->data, block.data);  // aliases, never copies

  BlockStore store;
  EXPECT_EQ(store.put(*checked), PutStatus::kStored);
  EXPECT_EQ(store.get(block.cid), block.data);
}

TEST(BlockStoreTest, RemoveRespectsPins) {
  BlockStore store;
  const auto block = Block::from_data(Multicodec::kRaw, bytes_of("keep me"));
  store.put(block);
  store.pin(block.cid);
  EXPECT_FALSE(store.remove(block.cid));
  EXPECT_TRUE(store.has(block.cid));
  store.unpin(block.cid);
  EXPECT_TRUE(store.remove(block.cid));
  EXPECT_FALSE(store.has(block.cid));
}

TEST(BlockStoreTest, GarbageCollectionSparesPinnedBlocks) {
  BlockStore store;
  const auto pinned = Block::from_data(Multicodec::kRaw, bytes_of("pinned"));
  const auto loose1 = Block::from_data(Multicodec::kRaw, bytes_of("loose-1"));
  const auto loose2 = Block::from_data(Multicodec::kRaw, bytes_of("loose-22"));
  store.put(pinned);
  store.put(loose1);
  store.put(loose2);
  store.pin(pinned.cid);

  const auto reclaimed = store.collect_garbage();
  EXPECT_EQ(reclaimed, 7u + 8u);
  EXPECT_TRUE(store.has(pinned.cid));
  EXPECT_FALSE(store.has(loose1.cid));
  EXPECT_EQ(store.block_count(), 1u);
  EXPECT_EQ(store.total_bytes(), 6u);
}

TEST(LruBlockStoreTest, EvictsLeastRecentlyUsed) {
  LruBlockStore cache(10);  // bytes
  const Cid a = cid_of("a");
  const Cid b = cid_of("b");
  const Cid c = cid_of("c");
  EXPECT_TRUE(cache.put(a, 3));
  EXPECT_TRUE(cache.put(b, 4));
  // Touch a so b becomes the LRU entry; the hit returns a's byte count.
  EXPECT_EQ(cache.get(a), std::optional<std::uint64_t>(3));
  EXPECT_TRUE(cache.put(c, 5));  // 12 bytes > 10: evicts b
  EXPECT_TRUE(cache.has(a));
  EXPECT_FALSE(cache.has(b));
  EXPECT_TRUE(cache.has(c));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.used_bytes(), 8u);
  EXPECT_EQ(cache.get(c), std::optional<std::uint64_t>(5));
  EXPECT_EQ(cache.get(b), std::nullopt);
}

TEST(LruBlockStoreTest, RefusesOversizedBlocks) {
  LruBlockStore cache(4);
  EXPECT_FALSE(cache.put(cid_of("too big"), 7));
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST(LruBlockStoreTest, ReinsertRefreshesRecency) {
  LruBlockStore cache(8);
  const Cid a = cid_of("a");
  const Cid b = cid_of("b");
  const Cid c = cid_of("c");
  cache.put(a, 4);
  cache.put(b, 4);
  cache.put(a, 4);  // refresh a; b is now LRU
  cache.put(c, 4);  // evicts b
  EXPECT_TRUE(cache.has(a));
  EXPECT_FALSE(cache.has(b));
  EXPECT_EQ(cache.block_count(), 2u);
}

TEST(LruBlockStoreTest, RePutKeepsUsedBytesExact) {
  // Regression: a re-put of a resident object must not double-count its
  // size (content is immutable, so the size is identical by CID).
  LruBlockStore cache(64);
  const Cid a = cid_of("a");
  cache.put(a, 4);
  EXPECT_EQ(cache.used_bytes(), 4u);
  EXPECT_TRUE(cache.put(a, 4));
  EXPECT_EQ(cache.used_bytes(), 4u);
  EXPECT_EQ(cache.block_count(), 1u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(LruBlockStoreTest, InterleavedGetPutEvictsScanTrafficFirst) {
  // Segmented LRU: entries hit since insertion live in the protected
  // segment; one-touch scan traffic in probation evicts first, even when
  // the protected entries are older.
  LruBlockStore cache(12);
  const Cid a = cid_of("a");
  const Cid b = cid_of("b");
  const Cid c = cid_of("c");
  const Cid d = cid_of("d");
  const Cid e = cid_of("e");
  cache.put(a, 4);
  cache.put(b, 4);
  cache.put(c, 4);
  EXPECT_TRUE(cache.get(a).has_value());  // promote a
  EXPECT_TRUE(cache.get(c).has_value());  // promote c
  cache.put(d, 4);  // full: evicts b — the only probationary entry
  EXPECT_FALSE(cache.has(b));
  cache.put(e, 4);  // evicts d (probation), not the older-but-hit a/c
  EXPECT_FALSE(cache.has(d));
  EXPECT_TRUE(cache.has(a));
  EXPECT_TRUE(cache.has(c));
  EXPECT_TRUE(cache.has(e));
  EXPECT_EQ(cache.protected_bytes(), 8u);
  EXPECT_EQ(cache.used_bytes(), 12u);
}

TEST(LruBlockStoreTest, ProtectedOverflowDemotesBackToProbation) {
  // The protected segment holds 80% of the capacity: 6 of 8 bytes, so one
  // 4-byte entry fits. Promoting a second hit entry demotes the first
  // back to probation, where it is eviction-eligible again.
  LruBlockStore cache(8);
  const Cid a = cid_of("a");
  const Cid b = cid_of("b");
  const Cid c = cid_of("c");
  cache.put(a, 4);
  cache.put(b, 4);
  EXPECT_TRUE(cache.get(a).has_value());  // a -> protected
  EXPECT_TRUE(cache.get(b).has_value());  // b -> protected, a demoted
  EXPECT_EQ(cache.protected_bytes(), 4u);
  cache.put(c, 4);  // needs room: evicts a from probation, b survives
  EXPECT_FALSE(cache.has(a));
  EXPECT_TRUE(cache.has(b));
  EXPECT_TRUE(cache.has(c));
}

TEST(FrequencySketchTest, HalvingIsDeterministic) {
  // Two sketches fed the identical access stream agree on every counter,
  // through multiple halving cycles — the property the byte-identical
  // bench traces rely on.
  FrequencySketch left(64);
  FrequencySketch right(64);
  ASSERT_EQ(left.sample_period(), right.sample_period());
  const std::uint64_t accesses = 10 * left.sample_period();
  std::uint64_t key = 0x12345678u;
  for (std::uint64_t i = 0; i < accesses; ++i) {
    key = key * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::uint64_t hash = key >> 16;
    left.record(hash % 97);  // small key space: counters actually climb
    right.record(hash % 97);
  }
  EXPECT_GT(left.halvings(), 0u);
  EXPECT_EQ(left.halvings(), right.halvings());
  EXPECT_EQ(left.sample_count(), right.sample_count());
  for (std::uint64_t probe = 0; probe < 97; ++probe) {
    EXPECT_EQ(left.estimate(probe), right.estimate(probe)) << probe;
    EXPECT_LE(left.estimate(probe), 15u);  // 4-bit counters saturate
  }
}

TEST(FrequencySketchTest, HalvingAgesOldTraffic) {
  FrequencySketch sketch(64);
  for (int i = 0; i < 12; ++i) sketch.record(42);
  const std::uint32_t hot = sketch.estimate(42);
  EXPECT_GE(hot, 12u);
  // Drive enough cold traffic to force a halving; 42's estimate decays.
  const std::uint64_t before = sketch.halvings();
  std::uint64_t key = 7;
  while (sketch.halvings() == before) {
    key = key * 6364136223846793005ULL + 1442695040888963407ULL;
    sketch.record(key);
  }
  EXPECT_LE(sketch.estimate(42), hot / 2 + 1);
}

TEST(LruBlockStoreTest, TinyLfuRefusesColdCandidates) {
  // A hot resident must not be flushed by a one-hit wonder: the sketch
  // estimate of the candidate is below the victim's, so the put is
  // refused and counted as an admission rejection.
  LruBlockStore cache(4, LruConfig{.tinylfu = true});
  const Cid hot = cid_of("hot!");
  const Cid cold = cid_of("cold");
  ASSERT_TRUE(cache.put(hot, 4));
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(cache.get(hot).has_value());

  // Would evict hot; cold is colder.
  EXPECT_FALSE(cache.put(cold, 4));
  EXPECT_TRUE(cache.has(hot));
  EXPECT_FALSE(cache.has(cold));
  EXPECT_EQ(cache.admission_rejections(), 1u);
  EXPECT_EQ(cache.evictions(), 0u);

  // Once the candidate has proven itself (repeated misses recorded in
  // the sketch), admission goes through and the old resident is evicted.
  for (int i = 0; i < 8; ++i) EXPECT_FALSE(cache.get(cold).has_value());
  EXPECT_TRUE(cache.put(cold, 4));
  EXPECT_TRUE(cache.has(cold));
  EXPECT_FALSE(cache.has(hot));
  EXPECT_EQ(cache.evictions(), 1u);
}

}  // namespace
}  // namespace ipfs::blockstore
