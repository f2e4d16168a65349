// Fault sweep: retrieval success and latency vs. injected fault intensity.
//
// Runs batches of seeded fuzz schedules (sim/fuzz_harness.h) at growing
// fault scales and reports, per level: publish/retrieval success rates,
// retrieval latency percentiles, and the latency CDF series. The paper's
// live measurements (Sections 5-6) see retrieval degrade gracefully as
// the network gets hostile — dead routing entries, unreachable peers,
// resets; this sweep reproduces that degradation curve in simulation.
#include <cstdio>
#include <vector>

#include "common.h"
#include "perf_common.h"
#include "sim/fuzz_harness.h"

using namespace ipfs;

int main() {
  bench::print_header(
      "Fault sweep: retrieval success vs. injected fault intensity",
      "hypothesis: success degrades gracefully with fault rate; failures "
      "are typed, never hangs");

  const std::size_t schedules_per_level = bench::scaled(20, 4);
  const double levels[] = {0.0, 0.1, 0.2, 0.4};

  stats::TextTable table({"fault scale", "publish ok", "retrieve ok",
                          "attempted", "p50", "p90", "p99", "faults/run"});
  std::vector<std::pair<double, stats::Cdf>> cdfs;

  for (const double scale : levels) {
    // Schedules are independent seeded trials: shard them across cores
    // and fold the per-schedule results in seed order, so the sweep's
    // output is byte-identical to the serial run.
    struct ScheduleOutcome {
      std::size_t publishes = 0, publishes_ok = 0;
      std::size_t attempted = 0, ok = 0;
      std::uint64_t faults = 0;
      std::vector<double> latencies;
      std::string violation;
    };
    const auto outcomes = bench::run_trials(
        schedules_per_level, bench::run_seed(), [&](std::uint64_t seed) {
          simfuzz::ScheduleParams params = simfuzz::make_schedule(seed);
          // Sweep the fault dimension only: pin the intensity, keep the
          // world/workload randomization from the seed, stay on the short
          // horizon so every level runs the same schedule shapes.
          params.long_horizon = false;
          params.fault_scale = scale;
          params.faults = simfuzz::faults_for_scale(scale, false);

          const simfuzz::ScheduleReport report =
              simfuzz::run_schedule(params);
          ScheduleOutcome outcome;
          if (!report.ok()) {
            outcome.violation = report.failure_summary();
            return outcome;
          }
          outcome.publishes = params.publish_count;
          outcome.publishes_ok = report.stats.publishes_ok();
          outcome.attempted = report.stats.retrievals_attempted();
          outcome.ok = report.stats.retrievals_ok();
          outcome.faults = report.stats.faults.total_injected();
          for (const auto& op : report.stats.ops) {
            if (op.kind == simfuzz::OpRecord::Kind::kRetrieve &&
                op.completed && op.ok)
              outcome.latencies.push_back(sim::to_seconds(op.elapsed));
          }
          return outcome;
        });

    std::size_t publishes = 0, publishes_ok = 0;
    std::size_t attempted = 0, ok = 0;
    std::uint64_t faults = 0;
    std::vector<double> latencies;
    for (const auto& trial : outcomes) {
      if (!trial.result.violation.empty()) {
        std::printf("INVARIANT VIOLATION\n%s\n",
                    trial.result.violation.c_str());
        return 1;
      }
      publishes += trial.result.publishes;
      publishes_ok += trial.result.publishes_ok;
      attempted += trial.result.attempted;
      ok += trial.result.ok;
      faults += trial.result.faults;
      latencies.insert(latencies.end(), trial.result.latencies.begin(),
                       trial.result.latencies.end());
    }

    if (latencies.empty()) latencies.push_back(0.0);
    const stats::Cdf cdf(std::move(latencies));
    table.add_row({stats::format_percent(scale, 0),
                   bench::pct(static_cast<double>(publishes_ok) /
                              static_cast<double>(publishes)),
                   bench::pct(static_cast<double>(ok) /
                              static_cast<double>(attempted)),
                   std::to_string(attempted),
                   bench::secs(cdf.percentile(50)),
                   bench::secs(cdf.percentile(90)),
                   bench::secs(cdf.percentile(99)),
                   std::to_string(faults / schedules_per_level)});
    cdfs.emplace_back(scale, cdf);
  }

  std::printf("%s\n", table.render().c_str());
  for (const auto& [scale, cdf] : cdfs) {
    std::printf("%s", stats::render_cdf_series(
                          "retrieval_seconds@scale=" +
                              stats::format_percent(scale, 0),
                          cdf)
                          .c_str());
  }
  return 0;
}
