// Persistent block store tests (docs/BLOCKSTORE.md): log-structured
// segments, pin-aware GC, torn-tail recovery, and the acked-put
// durability contract — including the 300-seed crash-during-flush sweep
// the data-plane bench also gates on.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <set>
#include <string>

#include "blockstore/persist/persistent_store.h"
#include "blockstore/store_config.h"
#include "sim/rng.h"

namespace ipfs::blockstore::persist {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, sim::Rng& rng) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

Block make_block(std::size_t n, sim::Rng& rng) {
  return Block::from_data(multiformats::Multicodec::kRaw,
                          random_bytes(n, rng));
}

std::unique_ptr<PersistentBlockStore> make_persistent(
    const StoreConfig& config = {}) {
  return std::make_unique<PersistentBlockStore>(
      std::make_unique<MemStorage>(), config);
}

TEST(PersistentStore, PutGetRoundTripAndReopen) {
  auto store = make_persistent();
  sim::Rng rng(1);
  std::vector<Block> blocks;
  for (int i = 0; i < 20; ++i) blocks.push_back(make_block(100 + i * 37, rng));
  for (const auto& block : blocks)
    EXPECT_EQ(store->put(block), PutStatus::kStored);
  EXPECT_EQ(store->block_count(), blocks.size());
  store->flush();

  // Everything was fsynced, so a crash loses nothing: the reopened index
  // serves every block byte-identically.
  store->handle_crash();
  EXPECT_EQ(store->block_count(), blocks.size());
  for (const auto& block : blocks) {
    const auto data = store->get(block.cid);
    ASSERT_TRUE(data != nullptr);
    EXPECT_EQ(*data, *block.data);
  }
  EXPECT_EQ(store->recovered_truncated_bytes(), 0u);
}

TEST(PersistentStore, RemoveTombstoneSurvivesReopen) {
  auto store = make_persistent();
  sim::Rng rng(3);
  const auto keep = make_block(128, rng);
  const auto drop = make_block(256, rng);
  store->put(keep);
  store->put(drop);
  EXPECT_TRUE(store->remove(drop.cid));
  store->flush();

  store->handle_crash();
  EXPECT_TRUE(store->has(keep.cid));
  EXPECT_FALSE(store->has(drop.cid));  // the tombstone replayed
}

TEST(PersistentStore, PinnedBlocksSurviveCompaction) {
  StoreConfig config;
  config.segment_bytes = 4 * 1024;  // force several segments
  auto store = make_persistent(config);
  sim::Rng rng(4);

  std::vector<Block> pinned, unpinned;
  std::uint64_t unpinned_bytes = 0;
  for (int i = 0; i < 30; ++i) {
    const auto block = make_block(300 + i * 11, rng);
    store->put(block);
    if (i % 3 == 0) {
      store->pin(block.cid);
      pinned.push_back(block);
    } else {
      unpinned_bytes += block.data->size();
      unpinned.push_back(block);
    }
  }
  ASSERT_GT(store->segment_count(), 1u);

  // GC reclaims exactly the unpinned payload bytes, nothing else.
  EXPECT_EQ(store->collect_garbage(), unpinned_bytes);
  for (const auto& block : pinned) {
    const auto data = store->get(block.cid);
    ASSERT_TRUE(data != nullptr);
    EXPECT_EQ(*data, *block.data);
    EXPECT_TRUE(store->pinned(block.cid));
  }
  for (const auto& block : unpinned) EXPECT_FALSE(store->has(block.cid));

  // The compaction physically rewrote the log: survivors and pins
  // replay from the fresh segments after a crash.
  store->handle_crash();
  EXPECT_EQ(store->block_count(), pinned.size());
  for (const auto& block : pinned) {
    EXPECT_TRUE(store->has(block.cid));
    EXPECT_TRUE(store->pinned(block.cid));
  }
}

TEST(PersistentStore, GcOnEmptyAndAllPinnedReclaimsNothing) {
  auto store = make_persistent();
  EXPECT_EQ(store->collect_garbage(), 0u);
  sim::Rng rng(5);
  const auto block = make_block(512, rng);
  store->put(block);
  store->pin(block.cid);
  EXPECT_EQ(store->collect_garbage(), 0u);
  EXPECT_TRUE(store->has(block.cid));
}

TEST(PersistentStore, TornFinalRecordIsTruncatedNotFatal) {
  auto store = make_persistent();
  sim::Rng rng(6);
  std::vector<Block> blocks;
  for (int i = 0; i < 8; ++i) blocks.push_back(make_block(200, rng));
  for (const auto& block : blocks) store->put(block);
  store->flush();

  // Simulate a torn final record: garbage appended to the live segment
  // and made "durable" (synced), so recovery must cut it by CRC/shape,
  // not by the sync watermark.
  const auto garbage = random_bytes(37, rng);
  const std::string segment = "seg-00000000.log";
  ASSERT_GT(store->storage().size(segment), 0u);
  store->storage().append(segment, garbage);
  store->storage().sync(segment);

  store->handle_crash();
  EXPECT_EQ(store->recovered_truncated_bytes(), garbage.size());
  EXPECT_EQ(store->block_count(), blocks.size());
  for (const auto& block : blocks) EXPECT_TRUE(store->has(block.cid));

  // And the truncated store keeps working: new puts append cleanly.
  const auto fresh = make_block(64, rng);
  EXPECT_EQ(store->put(fresh), PutStatus::kStored);
  EXPECT_TRUE(store->has(fresh.cid));
}

TEST(PersistentStore, CrashCutsUnsyncedTailOnly) {
  StoreConfig config;
  config.crash_seed = 99;
  auto store = make_persistent(config);
  sim::Rng rng(7);
  const auto durable = make_block(400, rng);
  store->put(durable);
  store->flush();
  const auto at_risk = make_block(400, rng);
  store->put(at_risk);  // appended but never fsynced

  store->handle_crash();
  // The durable block survives unconditionally; the unsynced one may or
  // may not (the seeded cut can fall anywhere in its record) — but the
  // store must be consistent either way.
  const auto data = store->get(durable.cid);
  ASSERT_TRUE(data != nullptr);
  EXPECT_EQ(*data, *durable.data);
  if (store->has(at_risk.cid)) {
    const auto survived = store->get(at_risk.cid);
    ASSERT_TRUE(survived != nullptr);
    EXPECT_EQ(*survived, *at_risk.data);
  }
}

TEST(PersistentStore, BlockKeptByRecoveryIsAckedWhenPutAgain) {
  // A put that finds its block already logged (kAlreadyPresent) is acked
  // by the next flush() like any other. When the crash cut kept that
  // block's unsynced record, recovery must make it durable: no later
  // flush() syncs the old segment.
  int kept = 0;
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    StoreConfig config;
    config.crash_seed = seed;
    auto store = make_persistent(config);
    sim::Rng rng(seed);
    // A 1-byte block keeps the record short, so the first cut keeps all
    // of it for about one seed in 50.
    const auto block = make_block(1, rng);
    store->put(block);
    store->handle_crash();
    if (!store->has(block.cid)) continue;  // the cut took the record
    ++kept;
    EXPECT_EQ(store->put(block), PutStatus::kAlreadyPresent);
    store->flush();
    store->handle_crash();
    EXPECT_TRUE(store->has(block.cid)) << "seed " << seed;
  }
  EXPECT_GT(kept, 0);
}

TEST(PersistentStore, SecondPowerCutKeepsWhatRecoveryKept) {
  // A power cut keeps a prefix of the unsynced tail, and recovery syncs
  // what it kept: a second cut, with no flush() between the two, must
  // leave every block and pin that the first one left.
  int blocks_kept = 0;
  int pins_kept = 0;
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    StoreConfig config;
    config.crash_seed = seed;
    auto store = make_persistent(config);
    sim::Rng rng(seed);
    std::vector<Block> blocks;
    for (int i = 0; i < 4; ++i) blocks.push_back(make_block(1, rng));
    for (const auto& block : blocks) store->put(block);
    store->pin(blocks[0].cid);

    store->handle_crash();
    std::vector<const Block*> kept;
    for (const auto& block : blocks)
      if (store->has(block.cid)) kept.push_back(&block);
    const bool pin_kept = store->pinned(blocks[0].cid);
    blocks_kept += static_cast<int>(kept.size());
    pins_kept += pin_kept ? 1 : 0;

    store->handle_crash();
    for (const Block* block : kept) {
      const auto data = store->get(block->cid);
      EXPECT_TRUE(data != nullptr && *data == *block->data) << "seed " << seed;
    }
    if (pin_kept) {
      EXPECT_TRUE(store->pinned(blocks[0].cid)) << "seed " << seed;
    }
  }
  EXPECT_GT(blocks_kept, 0);
  EXPECT_GT(pins_kept, 0);
}

TEST(PersistentStore, ProcessRestartKeepsUnflushedPuts) {
  // Over real files handle_crash() is a process restart: the kernel
  // still holds everything the store appended, so puts that no flush()
  // acked survive it too.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("persist_restart_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  StoreConfig config;
  config.backend = StoreConfig::Backend::kPersistent;
  config.directory = dir.string();
  {
    const auto store = make_store(config, nullptr);
    sim::Rng rng(13);
    std::vector<Block> blocks;
    for (int i = 0; i < 3; ++i) blocks.push_back(make_block(300, rng));
    for (const auto& block : blocks)
      EXPECT_EQ(store->put(block), PutStatus::kStored);

    store->handle_crash();
    EXPECT_EQ(store->block_count(), blocks.size());
    for (const auto& block : blocks) {
      const auto data = store->get(block.cid);
      ASSERT_TRUE(data != nullptr);
      EXPECT_EQ(*data, *block.data);
    }
  }
  std::filesystem::remove_all(dir);
}

// The crash-during-flush sweep: across 300 seeded schedules of
// interleaved puts/flushes/crashes, every block whose put was followed by
// a completed flush — acked — must be readable after every subsequent
// restart. Unacked blocks may survive or vanish; either way the store
// must stay consistent.
TEST(PersistentStore, AckedPutsSurviveCrashAcrossThreeHundredSeeds) {
  constexpr int kSeeds = 300;
  for (int seed = 0; seed < kSeeds; ++seed) {
    sim::Rng rng(0xACED0000 + static_cast<std::uint64_t>(seed));
    StoreConfig config;
    config.segment_bytes = 8 * 1024;
    config.crash_seed = rng.next();
    PersistentBlockStore store(std::make_unique<MemStorage>(), config);

    std::vector<Block> all;
    std::set<std::size_t> acked;       // indices durable as of last flush
    std::set<std::size_t> unflushed;   // put but not yet flushed
    const int ops = static_cast<int>(rng.uniform_int(20, 60));
    for (int op = 0; op < ops; ++op) {
      const auto draw = rng.uniform_int(0, 9);
      if (draw < 6) {
        const auto block = make_block(
            static_cast<std::size_t>(rng.uniform_int(1, 2048)), rng);
        if (store.put(block) == PutStatus::kStored) {
          unflushed.insert(all.size());
          all.push_back(block);
        }
      } else if (draw < 8) {
        store.flush();
        acked.insert(unflushed.begin(), unflushed.end());
        unflushed.clear();
      } else {
        store.handle_crash();
        for (const std::size_t i : unflushed) {
          if (!store.has(all[i].cid)) continue;  // the cut took it
          const auto data = store.get(all[i].cid);
          ASSERT_TRUE(data != nullptr) << "seed " << seed;
          EXPECT_EQ(*data, *all[i].data) << "seed " << seed;
        }
        unflushed.clear();  // the crash may have taken them
        for (const std::size_t i : acked) {
          const auto data = store.get(all[i].cid);
          ASSERT_TRUE(data != nullptr)
              << "seed " << seed << ": acked block " << i
              << " lost after crash at op " << op;
          EXPECT_EQ(*data, *all[i].data) << "seed " << seed;
        }
      }
    }
    store.handle_crash();
    for (const std::size_t i : acked) {
      const auto data = store.get(all[i].cid);
      ASSERT_TRUE(data != nullptr)
          << "seed " << seed << ": acked block " << i << " lost at the end";
      EXPECT_EQ(*data, *all[i].data) << "seed " << seed;
    }
  }
}

TEST(StoreConfigFactory, BuildsEveryBackend) {
  sim::Rng rng(12);
  const auto block = make_block(100, rng);
  for (const auto backend : {StoreConfig::Backend::kMemory,
                             StoreConfig::Backend::kPersistent}) {
    StoreConfig config;
    config.backend = backend;
    const auto store = make_store(config, nullptr);
    ASSERT_TRUE(store != nullptr);
    EXPECT_EQ(store->put(block), PutStatus::kStored);
    store->flush();
    const auto data = store->get(block.cid);
    ASSERT_TRUE(data != nullptr);
    EXPECT_EQ(*data, *block.data);
    store->handle_crash();
    EXPECT_TRUE(store->has(block.cid));
  }
}

}  // namespace
}  // namespace ipfs::blockstore::persist
