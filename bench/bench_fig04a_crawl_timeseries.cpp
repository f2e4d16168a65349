// Figure 4a: total crawled peers over time, split into dialable and
// undialable fractions. The crawler runs every 30 simulated minutes.
//
// This bench doubles as the scale census (docs/SCALING.md): the world
// size, round count and trial count are env-tunable, and independent
// seeded trials shard across cores via bench::run_trials.
//
//   IPFS_BENCH_PEERS=100000 IPFS_BENCH_ROUNDS=1 ./bench_fig04a_crawl_timeseries
//   IPFS_BENCH_TRIALS=8 IPFS_BENCH_THREADS=8 ...   # multi-trial fold
//   IPFS_BENCH_WALL_BUDGET_S=60 ...                # fail if wall-clock exceeds
//   IPFS_BENCH_ARTIFACT=census.jsonl ...           # per-phase JSONL dump
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "perf_common.h"

using namespace ipfs;

namespace {

struct CensusTrial {
  std::string rendered;              // per-round table rows
  std::size_t final_total = 0;       // last round's census
  std::size_t final_dialable = 0;
  std::vector<double> dialable_shares;  // one per round, for folding
  double build_seconds = 0.0;        // world construction wall time
  double event_seconds = 0.0;        // crawl rounds wall time (event loop)
  std::uint64_t events_executed = 0; // events the crawl rounds executed
};

double elapsed_s(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

// Peak resident set of the whole process so far, in MiB.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

int main() {
  bench::print_header(
      "Figure 4a: crawled peers over time (dialable vs undialable)",
      "~200k peers total, ~55 % dialable at any snapshot, 1-day periodicity");

  const std::size_t peers =
      bench::env_size("IPFS_BENCH_PEERS", bench::scaled(2500, 400));
  const std::size_t rounds =
      bench::env_size("IPFS_BENCH_ROUNDS", bench::scaled(16, 4));
  const std::size_t trials = bench::bench_trials(1);
  const sim::Duration interval = sim::minutes(30);

  // A routing entry is 36 bytes, so full 192-entry tables cost ~6.9 KB
  // per peer; beyond ~20k peers cap the pre-seeded budget so a 100k
  // census fits in CI memory.
  // Crawl coverage is unaffected: the BFS still traverses the whole
  // keyspace, just through a few more hops.
  const std::size_t routing_entries = peers > 20'000 ? 64 : 192;

  const auto wall_start = std::chrono::steady_clock::now();

  const auto results = bench::run_trials(
      trials, bench::run_seed(), [&](std::uint64_t seed) {
        const auto build_start = std::chrono::steady_clock::now();
        const auto world = bench::scenario_builder(peers, seed)
                               .max_routing_entries(routing_entries)
                               .build_world();
        CensusTrial trial;
        trial.build_seconds = elapsed_s(build_start);

        const sim::NodeId self = world->network().add_node(
            sim::NodeConfig()
                .with_region(world::kEuCentral)
                .with_bandwidth(100.0 * 1024 * 1024, 100.0 * 1024 * 1024));

        std::ostringstream out;
        for (std::size_t round = 0; round < rounds; ++round) {
          crawler::Crawler crawler(world->network(), self,
                                   world->bootstrap_refs());
          crawler::CrawlResult result;
          crawler.crawl(
              [&](crawler::CrawlResult r) { result = std::move(r); });
          const auto round_start = std::chrono::steady_clock::now();
          trial.events_executed += world->run();
          trial.event_seconds += elapsed_s(round_start);

          const double share =
              static_cast<double>(result.dialable()) /
              static_cast<double>(std::max<std::size_t>(1, result.total()));
          char row[128];
          std::snprintf(row, sizeof(row), "%-12s %10zu %10zu %12zu %9.1f%%\n",
                        stats::format_seconds(
                            sim::to_seconds(result.started_at))
                            .c_str(),
                        result.total(), result.dialable(),
                        result.undialable(), 100.0 * share);
          out << row;
          trial.dialable_shares.push_back(share);
          trial.final_total = result.total();
          trial.final_dialable = result.dialable();

          const auto advance_start = std::chrono::steady_clock::now();
          trial.events_executed += world->run_until(world->now() + interval);
          trial.event_seconds += elapsed_s(advance_start);
        }
        trial.rendered = out.str();
        return trial;
      });

  const auto wall_end = std::chrono::steady_clock::now();
  const double wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();

  std::printf("%-12s %10s %10s %12s %10s\n", "sim_time", "total",
              "dialable", "undialable", "dialable%");
  std::printf("%s", results[0].result.rendered.c_str());

  if (trials > 1) {
    // Trials come back in seed order, so the merged CDF is
    // byte-identical regardless of thread completion order.
    std::vector<double> shares;
    for (const auto& trial : results)
      shares.insert(shares.end(), trial.result.dialable_shares.begin(),
                    trial.result.dialable_shares.end());
    const stats::Cdf cdf(std::move(shares));
    std::printf("\nfolded over %zu trials: dialable share p10 %.1f%%  "
                "p50 %.1f%%  p90 %.1f%%\n",
                trials, cdf.percentile(10) * 100.0,
                cdf.percentile(50) * 100.0, cdf.percentile(90) * 100.0);
  }

  double build_seconds = 0.0, event_seconds = 0.0;
  std::uint64_t events_executed = 0;
  for (const auto& trial : results) {
    build_seconds += trial.result.build_seconds;
    event_seconds += trial.result.event_seconds;
    events_executed += trial.result.events_executed;
  }
  const double peak_rss = peak_rss_mb();
  std::printf("\ncensus: %zu peers, %zu round(s), %zu trial(s), "
              "wall-clock %.1f s, peak_rss_mb %.1f\n",
              peers, rounds, trials, wall_seconds, peak_rss);
  std::printf("phases: build %.1f s, events %.1f s "
              "(%llu events, %.0f events/s)\n",
              build_seconds, event_seconds,
              static_cast<unsigned long long>(events_executed),
              event_seconds > 0.0
                  ? static_cast<double>(events_executed) / event_seconds
                  : 0.0);

  if (const char* artifact_env = std::getenv("IPFS_BENCH_ARTIFACT");
      artifact_env != nullptr && artifact_env[0] != '\0') {
    std::ofstream artifact(artifact_env, std::ios::trunc);
    artifact << "{\"bench\":\"fig04a_census\",\"peers\":" << peers
             << ",\"rounds\":" << rounds << ",\"trials\":" << trials
             << ",\"build_s\":" << build_seconds
             << ",\"event_s\":" << event_seconds
             << ",\"events\":" << events_executed
             << ",\"wall_s\":" << wall_seconds
             << ",\"peak_rss_mb\":" << peak_rss
             << ",\"final_total\":" << results[0].result.final_total
             << ",\"final_dialable\":" << results[0].result.final_dialable
             << "}\n";
    std::printf("artifact: %s\n", artifact_env);
  }

  if (const std::size_t budget = bench::env_size("IPFS_BENCH_WALL_BUDGET_S", 0);
      budget > 0 && wall_seconds > static_cast<double>(budget)) {
    std::printf("FAIL: wall-clock %.1f s exceeded budget %zu s\n",
                wall_seconds, budget);
    return 1;
  }

  std::printf(
      "\nshape check: totals stay near the population size while the\n"
      "dialable share hovers around the paper's ~55%% snapshot value.\n");
  return 0;
}
