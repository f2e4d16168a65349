// Figure 8: churn — CDFs of DHT peer session lengths (uptime) per
// region, from adaptive uptime probing with long-session handling.
// Trials shard across cores (IPFS_BENCH_TRIALS); run_trials returns
// them in seed order, and their session samples are concatenated in
// that order before the aggregate CDF is computed, so the
// multi-threaded output is byte-stable.
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "crawler/census.h"
#include "crawler/uptime_prober.h"
#include "perf_common.h"
#include "stats/stats.h"

using namespace ipfs;

namespace {

struct ChurnTrial {
  std::string rendered;
  std::vector<double> session_hours;
  std::uint64_t probes_sent = 0;
};

}  // namespace

int main() {
  bench::print_header(
      "Figure 8: session-length CDFs by region",
      "87.6 % of sessions < 8 h, 2.5 % > 24 h; median HK 24.2 min, "
      "DE roughly double that");

  const std::size_t peers =
      bench::env_size("IPFS_BENCH_PEERS", bench::scaled(1800, 350));
  const std::size_t trials = bench::bench_trials(1);

  const auto results = bench::run_trials(
      trials, bench::run_seed(), [&](std::uint64_t seed) {
        const auto world = bench::scenario_builder(peers, seed).build_world();
        const auto crawl = bench::crawl_world(*world);
        ChurnTrial trial;

        const sim::NodeId prober_node = world->network().add_node(
            sim::NodeConfig()
                .with_region(world::kEuCentral)
                .with_bandwidth(100.0 * 1024 * 1024, 100.0 * 1024 * 1024));
        crawler::UptimeProber prober(world->network(), prober_node);
        for (const auto& obs : crawl.observations) prober.track(obs.peer);

        const sim::Time window_start = world->simulator().now();
        const sim::Duration window = sim::hours(bench::scaled(14, 3));
        world->simulator().run_until(window_start + window);
        prober.finish();
        trial.probes_sent = prober.probes_sent();

        const auto by_country = crawler::session_lengths_by_country(
            prober.sessions(), world->geodb(), window_start,
            world->simulator().now());
        for (const auto& [code, sessions] : by_country)
          trial.session_hours.insert(trial.session_hours.end(),
                                     sessions.begin(), sessions.end());

        std::ostringstream out;
        char line[128];
        std::snprintf(line, sizeof(line), "%-8s %8s %12s %12s %12s\n",
                      "region", "n", "median", "p90", "under 8h");
        out << line;
        for (const auto code : {"HK", "DE", "US", "CN", "FR", "TW", "KR"}) {
          const auto it = by_country.find(code);
          if (it == by_country.end() || it->second.size() < 5) continue;
          const stats::Cdf cdf(it->second);
          std::snprintf(line, sizeof(line),
                        "%-8s %8zu %9.1f min %9.1f min %11.1f%%\n", code,
                        it->second.size(), cdf.percentile(50) * 60.0,
                        cdf.percentile(90) * 60.0, cdf.at(8.0) * 100.0);
          out << line;
        }
        out << "\nCDF series (hours vs cumulative fraction):\n";
        for (const auto code : {"HK", "DE", "US", "CN"}) {
          const auto it = by_country.find(code);
          if (it == by_country.end() || it->second.size() < 5) continue;
          out << stats::render_cdf_series(code, stats::Cdf(it->second), 10);
        }
        trial.rendered = out.str();
        return trial;
      });

  // Concatenate all trials' session samples in seed order; with one
  // trial this is exactly the single-world aggregate.
  std::vector<double> all_hours;
  std::uint64_t probes_sent = 0;
  for (const auto& trial : results) {
    const auto& hours = trial.result.session_hours;
    all_hours.insert(all_hours.end(), hours.begin(), hours.end());
    probes_sent += trial.result.probes_sent;
  }
  if (all_hours.empty()) {
    std::printf("no sessions observed -- window too short\n");
    return 1;
  }
  const stats::Cdf all_cdf(all_hours);
  std::printf("sessions observed: %zu (probes sent: %llu, %zu trial(s))\n",
              all_hours.size(), static_cast<unsigned long long>(probes_sent),
              trials);
  std::printf("share of sessions under 8 h: %.1f%% (paper 87.6%%)\n",
              all_cdf.at(8.0) * 100.0);
  std::printf("median session: %.1f min\n\n",
              all_cdf.percentile(50) * 60.0);

  std::printf("%s", results[0].result.rendered.c_str());
  return 0;
}
