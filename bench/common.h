// Shared scaffolding for the experiment benches: run-seed handling,
// standard world sizes, crawl helpers, and paper-vs-measured printing.
//
// Every bench prints its seed; rerunning with IPFS_BENCH_SEED=<n> and the
// same build reproduces the output bit-for-bit.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "crawler/crawler.h"
#include "scenario/scenario.h"
#include "stats/stats.h"
#include "world/world.h"

namespace ipfs::bench {

inline std::uint64_t run_seed() {
  if (const char* env = std::getenv("IPFS_BENCH_SEED"))
    return std::strtoull(env, nullptr, 10);
  return 42;
}

// Smaller worlds when IPFS_BENCH_FAST=1 (CI smoke runs).
inline bool fast_mode() {
  const char* env = std::getenv("IPFS_BENCH_FAST");
  return env != nullptr && env[0] == '1';
}

inline std::size_t scaled(std::size_t full, std::size_t fast) {
  return fast_mode() ? fast : full;
}

// Integer env override (IPFS_BENCH_PEERS, IPFS_BENCH_ROUNDS, ...); zero
// or unset keeps the fallback.
inline std::size_t env_size(const char* name, std::size_t fallback) {
  if (const char* env = std::getenv(name)) {
    const auto n = std::strtoull(env, nullptr, 10);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return fallback;
}

inline void print_header(const std::string& experiment,
                         const std::string& paper_summary) {
  std::printf("==================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("paper:    %s\n", paper_summary.c_str());
  std::printf("seed:     %llu%s\n",
              static_cast<unsigned long long>(run_seed()),
              fast_mode() ? "  (fast mode)" : "");
  std::printf("------------------------------------------------------------------\n");
}

inline void print_row(const std::string& label, const std::string& value) {
  std::printf("%-28s %s\n", (label + ":").c_str(), value.c_str());
}

// Runs one crawl of `world` from a well-connected vantage point in
// Germany (Section 4.1) and returns the result.
inline crawler::CrawlResult crawl_world(world::World& world) {
  const sim::NodeId self = world.network().add_node(
      sim::NodeConfig()
          .with_region(world::kEuCentral)
          .with_bandwidth(100.0 * 1024 * 1024, 100.0 * 1024 * 1024));
  crawler::Crawler crawler(world.network(), self, world.bootstrap_refs());
  crawler::CrawlResult result;
  crawler.crawl([&](crawler::CrawlResult r) { result = std::move(r); });
  world.run();
  return result;
}

// The benches' one way to construct simulations: a ScenarioBuilder
// pre-loaded with the run seed. Chain world knobs (.undialable_fraction,
// .hydra, ...) and finish with .build_world(), or swarm knobs with
// .build().
inline scenario::ScenarioBuilder scenario_builder(std::size_t peers,
                                                  std::uint64_t seed) {
  scenario::ScenarioBuilder builder;
  builder.peers(peers).seed(seed);
  return builder;
}

inline scenario::ScenarioBuilder scenario_builder(std::size_t peers) {
  return scenario_builder(peers, run_seed());
}

// The standard paper-geography world at `peers` peers.
inline std::unique_ptr<world::World> standard_world(std::size_t peers) {
  return scenario_builder(peers).build_world();
}

inline std::string pct(double fraction) {
  return stats::format_percent(fraction);
}

inline std::string secs(double seconds) {
  return stats::format_seconds(seconds);
}

}  // namespace ipfs::bench
