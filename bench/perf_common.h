// Shared setup for the DHT-performance benches (Table 1, Figures 9/10,
// Table 4): builds a world and runs the Section 4.3 controlled
// experiment, returning the per-region publish/retrieval traces. Also
// home of the thread-parallel multi-trial runner the repeated-world
// benches (Figures 4a/5/7/8, fault sweep) shard their trials through.
#pragma once

#include <atomic>
#include <thread>

#include "common.h"
#include "workload/perf_experiment.h"

namespace ipfs::bench {

// ---------------------------------------------------------------------------
// Thread-parallel multi-trial runner.
//
// A trial is one fully deterministic simulation derived from a single
// seed — the simulator is single-threaded, so the way to use many cores
// is many independent trials. run_trials() shards trials base_seed+0 ..
// base_seed+trials-1 across a worker pool; the body must build its
// entire world from the seed it is handed (ScenarioBuilder makes that
// the path of least resistance) and must not touch shared state.
//
// Results come back indexed by trial — ascending seed, never completion
// order — so concatenating their samples in index order is
// byte-identical no matter how the threads interleave.
// ---------------------------------------------------------------------------

template <typename Result>
struct Trial {
  std::uint64_t seed = 0;
  Result result{};
};

// Worker-pool width: IPFS_BENCH_THREADS, default hardware concurrency.
inline std::size_t bench_threads() {
  if (const char* env = std::getenv("IPFS_BENCH_THREADS")) {
    const auto n = std::strtoull(env, nullptr, 10);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

// Trial count: IPFS_BENCH_TRIALS, default `fallback`.
inline std::size_t bench_trials(std::size_t fallback = 1) {
  if (const char* env = std::getenv("IPFS_BENCH_TRIALS")) {
    const auto n = std::strtoull(env, nullptr, 10);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return fallback;
}

template <typename Body>
auto run_trials(std::size_t trials, std::uint64_t base_seed, Body&& body)
    -> std::vector<Trial<decltype(body(std::uint64_t{}))>> {
  using Result = decltype(body(std::uint64_t{}));
  std::vector<Trial<Result>> results(trials);
  std::atomic<std::size_t> next{0};
  const std::size_t workers =
      std::min(bench_threads(), std::max<std::size_t>(trials, 1));

  const auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < trials;
         i = next.fetch_add(1)) {
      const std::uint64_t seed = base_seed + i;
      results[i] = Trial<Result>{seed, body(seed)};
    }
  };
  if (workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
    for (auto& thread : pool) thread.join();
  }
  return results;
}

struct PerfRun {
  std::unique_ptr<world::World> world;
  std::unique_ptr<workload::PerfExperiment> experiment;
};

inline PerfRun run_perf_experiment(std::size_t world_peers,
                                   std::size_t cycles,
                                   bool bitswap_early_exit = false) {
  PerfRun run;
  run.world = scenario_builder(world_peers).build_world();

  // The perf benches analyze the publish/retrieve span families from the
  // trace stream; without a filter the world's ambient DHT traffic
  // (thousands of net.dial/net.rpc spans) would evict them from the
  // bounded recorder. Instruments are unaffected.
  run.world->network().metrics().set_trace_filter([](const std::string& name) {
    return name.starts_with("publish.") || name.starts_with("retrieve.");
  });

  workload::PerfExperimentConfig config;
  config.cycles = cycles;
  config.bitswap_early_exit = bitswap_early_exit;
  run.experiment =
      std::make_unique<workload::PerfExperiment>(*run.world, config);

  bool done = false;
  run.experiment->run([&] { done = true; });
  run.world->simulator().run();
  if (!done) std::printf("WARNING: experiment did not complete\n");
  return run;
}

inline std::vector<double> to_seconds(const std::vector<sim::Duration>& in) {
  std::vector<double> out;
  out.reserve(in.size());
  for (const auto d : in) out.push_back(sim::to_seconds(d));
  return out;
}

// Maps each measurement node's NodeId to its AWS region label, so trace
// events (which carry the observing node) can be bucketed per region.
inline std::map<metrics::NodeId, std::string> region_by_node(PerfRun& run) {
  std::map<metrics::NodeId, std::string> out;
  for (std::size_t i = 0; i < run.experiment->node_count(); ++i)
    out[run.experiment->node(i).node()] = workload::aws_regions()[i].name;
  return out;
}

}  // namespace ipfs::bench
