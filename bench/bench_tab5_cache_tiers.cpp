// Table 5: traffic and latencies by serving tier — nginx cache, the
// gateway node's store (pinned content), and the P2P network.
//
// The breakdown is derived from the metrics registry the gateway's single
// accounting point feeds (gateway.tier.<name>.{requests,bytes} counters
// and gateway.latency.<name> histograms), not from the workload's own
// request log. The conservation identity sum(tier requests) ==
// gateway.requests is checked in passing; the bench exits 1 when it
// fails.
#include <cstdio>

#include "gateway_common.h"

using namespace ipfs;

int main() {
  bench::print_header(
      "Table 5: gateway serving tiers",
      "nginx: 0 s median / 46.0 % of requests; node store: 8 ms / 40.2 %; "
      "non-cached: 4.04 s / 13.8 %");

  auto experiment = bench::setup_gateway_experiment(
      bench::scaled(1000, 250), bench::scaled(180, 40),
      bench::scaled(14000, 1500));
  auto& world = *experiment.world;

  experiment.workload->run(*experiment.gateway);
  world.simulator().run_until(world.simulator().now() + sim::hours(24));
  world.simulator().run();

  const metrics::Registry& registry = world.network().metrics();

  struct Tier {
    const char* label;
    const char* metric;  // tier segment of the metric names
  };
  const Tier tiers[] = {
      {"nginx cache", "nginx_cache"},
      {"IPFS node store", "node_store"},
      {"Non-cached (P2P)", "p2p"},
  };

  // Shares are over served requests; failures are excluded from the
  // denominator (the paper's table reports delivered traffic).
  std::uint64_t total_bytes = 0, total_served = 0;
  for (const Tier& tier : tiers) {
    total_bytes += registry.counter_value(
        std::string("gateway.tier.") + tier.metric + ".bytes");
    total_served += registry.counter_value(
        std::string("gateway.tier.") + tier.metric + ".requests");
  }

  std::printf("%-18s %14s %16s %16s\n", "", "latency p50", "traffic served",
              "requests served");
  for (const Tier& tier : tiers) {
    const std::string prefix = std::string("gateway.tier.") + tier.metric;
    const std::uint64_t requests =
        registry.counter_value(prefix + ".requests");
    const std::uint64_t bytes = registry.counter_value(prefix + ".bytes");
    const auto& histogram = registry.histograms().find(
        std::string("gateway.latency.") + tier.metric);
    if (requests == 0 || histogram == registry.histograms().end()) {
      std::printf("%-18s %14s %15.1f%% %15.1f%%\n", tier.label, "-", 0.0, 0.0);
      continue;
    }
    const stats::Cdf latency(histogram->second.samples_seconds());
    std::printf("%-18s %14s %15.1f%% %15.1f%%\n", tier.label,
                bench::secs(latency.percentile(50)).c_str(),
                100.0 * static_cast<double>(bytes) /
                    static_cast<double>(total_bytes),
                100.0 * static_cast<double>(requests) /
                    static_cast<double>(total_served));
  }

  // Conservation: every request accounted in exactly one tier.
  const std::uint64_t failed =
      registry.counter_value("gateway.tier.failed.requests");
  const std::uint64_t total = registry.counter_value("gateway.requests");
  const bool conserved = total_served + failed == total &&
                         total == experiment.gateway->total_requests();
  std::printf("\ntier conservation: %llu served + %llu failed = %llu total "
              "(gateway reports %llu) %s\n",
              static_cast<unsigned long long>(total_served),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(total_served + failed),
              static_cast<unsigned long long>(total),
              conserved ? "OK" : "VIOLATED");

  const double hit_requests = static_cast<double>(
      registry.counter_value("gateway.tier.nginx_cache.requests") +
      registry.counter_value("gateway.tier.node_store.requests"));
  std::printf("combined cache hit rate: %.1f%% (paper: >80%% of requests)\n",
              100.0 * hit_requests / static_cast<double>(total));
  std::printf("nginx cache evictions: %llu\n",
              static_cast<unsigned long long>(
                  experiment.gateway->nginx_cache().evictions()));
  return conserved ? 0 : 1;
}
