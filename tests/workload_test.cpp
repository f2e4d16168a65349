// Workload tests: the gateway traffic generator's distributions and the
// Section 4.3 performance-experiment driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "crypto/sha256.h"
#include "workload/gateway_workload.h"
#include "stats/stats.h"
#include "workload/perf_experiment.h"

namespace ipfs::workload {
namespace {

TEST(GatewayWorkloadTest, CatalogSizesFollowConfig) {
  GatewayWorkloadConfig config;
  config.catalog_size = 200;
  GatewayWorkload workload(config, sim::Rng(1));
  ASSERT_EQ(workload.catalog().size(), 200u);
  std::size_t pinned = 0;
  for (const auto& object : workload.catalog()) {
    EXPECT_GE(object.size, 1024u);
    EXPECT_LE(object.size, config.size_cap_bytes);
    if (object.pinned) ++pinned;
  }
  EXPECT_NEAR(static_cast<double>(pinned) / 200.0, config.pinned_share, 0.12);
}

TEST(GatewayWorkloadTest, ObjectBytesAreDeterministicAndSized) {
  GatewayWorkloadConfig config;
  config.catalog_size = 10;
  GatewayWorkload a(config, sim::Rng(2));
  GatewayWorkload b(config, sim::Rng(2));
  EXPECT_EQ(a.object_bytes(3), b.object_bytes(3));
  EXPECT_EQ(a.object_bytes(3).size(), a.catalog()[3].size);
  // Contents are rank-keyed: same prefix even across differently seeded
  // workloads (only the drawn sizes differ).
  GatewayWorkload c(config, sim::Rng(999));
  const auto bytes_a = a.object_bytes(3);
  const auto bytes_c = c.object_bytes(3);
  const std::size_t prefix = std::min<std::size_t>(
      512, std::min(bytes_a.size(), bytes_c.size()));
  EXPECT_TRUE(std::equal(bytes_a.begin(), bytes_a.begin() + prefix,
                         bytes_c.begin()));
}

// Pins the bytes of several catalog objects, the ragged tail included:
// each 8-byte step takes one RNG word, least significant byte first, and
// the last size % 8 bytes of an object stay zero. The digest was taken on
// the byte-at-a-time writer the word writer replaced.
TEST(GatewayWorkloadTest, ObjectBytesMatchPinnedDigest) {
  GatewayWorkloadConfig config;
  config.catalog_size = 8;
  config.size_median_bytes = 3000;
  GatewayWorkload workload(config, sim::Rng(5));
  crypto::Sha256 hash;
  std::size_t ragged = 0;
  for (std::size_t rank = 0; rank < config.catalog_size; ++rank) {
    const std::vector<std::uint8_t> bytes = workload.object_bytes(rank);
    ASSERT_EQ(bytes.size(), workload.catalog()[rank].size);
    const std::size_t tail = bytes.size() % 8;
    if (tail != 0) {
      ++ragged;
      EXPECT_TRUE(std::all_of(bytes.end() - static_cast<std::ptrdiff_t>(tail),
                              bytes.end(),
                              [](std::uint8_t b) { return b == 0; }));
    }
    std::array<std::uint8_t, 8> size{};
    for (std::size_t b = 0; b < size.size(); ++b)
      size[b] = static_cast<std::uint8_t>(bytes.size() >> (8 * b));
    hash.update(size);
    hash.update(bytes);
  }
  EXPECT_GT(ragged, 0u);
  EXPECT_EQ(crypto::to_hex(hash.finish()),
            "becd25961944e7b77b2385c96351c5bcede64d52a7b1a1323571a907f2ac99ae");
}

TEST(GatewayWorkloadTest, DiurnalRateVariesOverTheDay) {
  GatewayWorkloadConfig config;
  GatewayWorkload workload(config, sim::Rng(3));
  double lo = 1e9, hi = 0;
  for (int hour = 0; hour < 24; ++hour) {
    const double rate = workload.rate_multiplier(sim::hours(hour));
    lo = std::min(lo, rate);
    hi = std::max(hi, rate);
  }
  EXPECT_GT(hi / lo, 1.5);  // Figure 4b's clear peak/trough swing
  EXPECT_GT(lo, 0.0);
}

TEST(PerfExperimentTest, RegionsMatchThePaper) {
  const auto& regions = aws_regions();
  ASSERT_EQ(regions.size(), 6u);
  EXPECT_EQ(regions[0].name, "af_south_1");
  EXPECT_EQ(regions[5].name, "us_west_1");
}

TEST(PerfExperimentTest, RunsCyclesAndCollectsTraces) {
  world::WorldConfig world_config;
  world_config.population.peer_count = 500;
  world_config.seed = 51;
  world::World world(world_config);

  PerfExperimentConfig config;
  config.cycles = 6;  // one publication per region
  PerfExperiment experiment(world, config);

  bool done = false;
  experiment.run([&] { done = true; });
  world.simulator().run();
  ASSERT_TRUE(done);

  const auto& results = experiment.results();
  EXPECT_EQ(results.publish_count(), 6u);
  EXPECT_EQ(results.retrieval_count(), 30u);  // 5 retrievals per cycle
  // Section 6.2 observes a 100 % retrieval success rate.
  EXPECT_EQ(results.retrieval_successes(), results.retrieval_count());

  for (const auto& [region, traces] : results.publishes) {
    ASSERT_EQ(traces.size(), 1u);
    EXPECT_TRUE(traces[0].ok);
    EXPECT_GT(traces[0].walk, 0);
  }
  for (const auto& [region, traces] : results.retrievals) {
    for (const auto& trace : traces) {
      EXPECT_TRUE(trace.ok);
      // Every retrieval pays the full Bitswap window (footnote 4).
      EXPECT_GE(trace.bitswap_discovery, sim::seconds(1));
      EXPECT_GT(trace.total, sim::seconds(1));
    }
  }
}

TEST(PerfExperimentTest, PublicationIsSlowerThanRetrieval) {
  world::WorldConfig world_config;
  world_config.population.peer_count = 600;
  world_config.seed = 53;
  world::World world(world_config);

  PerfExperimentConfig config;
  config.cycles = 12;
  PerfExperiment experiment(world, config);
  bool done = false;
  experiment.run([&] { done = true; });
  world.simulator().run();
  ASSERT_TRUE(done);

  const auto publish = experiment.results().all_publish_totals_seconds();
  const auto retrieve = experiment.results().all_retrieval_totals_seconds();
  ASSERT_FALSE(publish.empty());
  ASSERT_FALSE(retrieve.empty());
  const double publish_median = stats::percentile(publish, 50);
  const double retrieve_median = stats::percentile(retrieve, 50);
  // Section 6: publication (median 33.8 s) is an order of magnitude
  // slower than retrieval (median 2.9 s).
  EXPECT_GT(publish_median, 2.0 * retrieve_median);
}

}  // namespace
}  // namespace ipfs::workload
