// Ablation: gateway fleet — consistent-hash replicas and two-tier
// caching vs the single ipfs.io-style instance.
//
// The Section 6.3 day of traffic (diurnal double-peak, Zipf catalog) is
// replayed at 10x request volume through a GatewayFleet: N replicas
// behind a bounded-load consistent-hash router, each with the single
// instance's 18 MiB TinyLFU-admitted edge cache, sharing one origin
// tier. Measured per replica: the Table 5 tier breakdown; fleet-wide:
// the centralization metric of Balduf et al. — the share of requests
// absorbed inside the fleet (edge + node store + origin) vs forwarded
// to the P2P network.
//
// Acceptance gates: the fleet's cache tiers (edge + origin) hit at
// least as often as the single gateway's nginx cache on its 1x day;
// >80 % of fleet requests are absorbed without touching the P2P network
// (the paper's combined-cache bound); per-replica tier shares stay
// within 15 points of the fleet aggregate (consistent hashing splits
// the catalog evenly); per-replica labeled counters sum exactly to the
// aggregate instruments; and removing a replica moves at most ~1/N of
// the key space and only keys the removed replica owned.
//
// Writes a JSONL artifact (one sample per line); path overridable via
// IPFS_BENCH_ARTIFACT.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "gateway_common.h"

using namespace ipfs;

namespace {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Tier request counts for one gateway (or, summed, for the fleet).
struct TierShares {
  std::uint64_t nginx = 0;
  std::uint64_t node_store = 0;
  std::uint64_t origin = 0;
  std::uint64_t p2p = 0;
  std::uint64_t failed = 0;

  std::uint64_t served() const { return nginx + node_store + origin + p2p; }
  double share(std::uint64_t tier) const {
    return served() == 0 ? 0.0
                         : static_cast<double>(tier) /
                               static_cast<double>(served());
  }
};

TierShares shares_of(const gateway::Gateway& g) {
  TierShares s;
  s.nginx = g.stats(gateway::ServedFrom::kNginxCache).requests;
  s.node_store = g.stats(gateway::ServedFrom::kNodeStore).requests;
  s.origin = g.stats(gateway::ServedFrom::kOriginCache).requests;
  s.p2p = g.stats(gateway::ServedFrom::kP2p).requests;
  s.failed = g.stats(gateway::ServedFrom::kFailed).requests;
  return s;
}

// ---- Consistent-hash rebalance panel --------------------------------------
// Pure ring math: sample the key space, remove one replica, and measure
// which keys changed owner. Consistent hashing promises only the removed
// replica's ~1/N share moves; re-adding it must restore the original
// assignment exactly (vnode points are deterministic).
struct RebalancePanel {
  std::size_t keys = 0;
  std::size_t moved = 0;
  std::size_t illegal_moves = 0;  // owner changed but was not the removed one
  double removed_share = 0.0;     // key share the removed replica owned
  bool restored = false;
};

RebalancePanel run_rebalance_panel(std::size_t replicas, std::size_t vnodes,
                                   std::size_t keys) {
  gateway::HashRing ring(gateway::HashRingConfig{vnodes});
  for (std::size_t i = 0; i < replicas; ++i) ring.add_replica(i);

  RebalancePanel panel;
  panel.keys = keys;
  std::vector<std::size_t> before(keys);
  std::size_t removed_owned = 0;
  for (std::size_t k = 0; k < keys; ++k) {
    before[k] = *ring.owner(mix64(k));
    if (before[k] == 0) ++removed_owned;
  }
  panel.removed_share =
      static_cast<double>(removed_owned) / static_cast<double>(keys);

  ring.remove_replica(0);
  for (std::size_t k = 0; k < keys; ++k) {
    const std::size_t after = *ring.owner(mix64(k));
    if (after == before[k]) continue;
    ++panel.moved;
    if (before[k] != 0) ++panel.illegal_moves;
  }

  ring.add_replica(0);
  panel.restored = true;
  for (std::size_t k = 0; k < keys; ++k)
    if (*ring.owner(mix64(k)) != before[k]) panel.restored = false;
  return panel;
}

}  // namespace

int main() {
  bench::print_header(
      "Ablation: gateway fleet — consistent-hash replicas, two-tier "
      "TinyLFU caching vs the single instance",
      "Table 5 tiers per replica at 10x traffic; Balduf et al.: the "
      "fleet absorbs the load, deepening gateway centralization");

  const std::size_t replicas = bench::env_size("IPFS_BENCH_REPLICAS", 4);
  const std::size_t world_peers =
      bench::env_size("IPFS_BENCH_PEERS", bench::scaled(1000, 250));
  const std::size_t catalog_size = bench::scaled(180, 40);
  const std::uint64_t base_requests = bench::scaled(6000, 800);
  const std::uint64_t fleet_requests = 10 * base_requests;

  // ---- Arm 1: the single ipfs.io-style gateway at 1x -----------------------
  TierShares baseline;
  std::uint64_t baseline_total = 0;
  {
    auto experiment = bench::setup_gateway_experiment(
        world_peers, catalog_size, base_requests);
    experiment.workload->run(*experiment.gateway);
    auto& simulator = experiment.world->simulator();
    simulator.run_until(simulator.now() + sim::hours(24));
    simulator.run();
    baseline = shares_of(*experiment.gateway);
    baseline_total = experiment.gateway->total_requests();
  }
  std::printf("baseline (1 gateway, %llu requests): nginx=%.1f%% "
              "node_store=%.1f%% p2p=%.1f%%\n",
              static_cast<unsigned long long>(baseline_total),
              100.0 * baseline.share(baseline.nginx),
              100.0 * baseline.share(baseline.node_store),
              100.0 * baseline.share(baseline.p2p));

  // ---- Arm 2: the fleet at 10x ---------------------------------------------
  TierShares fleet_shares;
  std::vector<TierShares> replica_shares(replicas);
  std::vector<std::uint64_t> replica_totals(replicas, 0);
  std::uint64_t fleet_total = 0, fleet_spills = 0;
  std::uint64_t origin_used = 0, admission_rejections = 0, sketch_halvings = 0;
  double absorbed_share = 0.0;
  bool labels_conserve = true;
  {
    auto experiment = bench::setup_fleet_experiment(
        world_peers, catalog_size, fleet_requests, replicas);
    experiment.workload->run(*experiment.fleet);
    auto& simulator = experiment.world->simulator();
    simulator.run_until(simulator.now() + sim::hours(24));
    simulator.run();

    gateway::GatewayFleet& fleet = *experiment.fleet;
    for (std::size_t r = 0; r < replicas; ++r) {
      replica_shares[r] = shares_of(fleet.replica(r));
      replica_totals[r] = fleet.replica(r).total_requests();
      admission_rejections +=
          fleet.replica(r).nginx_cache().admission_rejections();
      if (const auto* sketch = fleet.replica(r).nginx_cache().sketch())
        sketch_halvings += sketch->halvings();
    }
    fleet_shares.nginx = fleet.aggregate(gateway::ServedFrom::kNginxCache).requests;
    fleet_shares.node_store = fleet.aggregate(gateway::ServedFrom::kNodeStore).requests;
    fleet_shares.origin = fleet.aggregate(gateway::ServedFrom::kOriginCache).requests;
    fleet_shares.p2p = fleet.aggregate(gateway::ServedFrom::kP2p).requests;
    fleet_shares.failed = fleet.aggregate(gateway::ServedFrom::kFailed).requests;
    fleet_total = fleet.total_requests();
    fleet_spills = fleet.routed_spills();
    origin_used = fleet.origin().used_bytes();
    absorbed_share = fleet.fleet_absorbed_share();

    // Per-replica labeled counters must sum exactly to the aggregate
    // instruments — the registry-level tier conservation identity.
    const metrics::Registry& registry = experiment.world->network().metrics();
    const char* tier_names[] = {"nginx_cache", "node_store", "origin_cache",
                                "p2p", "failed"};
    for (const char* tier : tier_names) {
      std::uint64_t labeled = 0;
      for (std::size_t r = 0; r < replicas; ++r)
        labeled += registry.counter_value("gateway.r" + std::to_string(r) +
                                         ".tier." + tier + ".requests");
      const std::uint64_t aggregate =
          registry.counter_value(std::string("gateway.tier.") + tier +
                                 ".requests");
      if (labeled != aggregate) labels_conserve = false;
    }
  }

  std::printf("\nfleet (%zu replicas, %llu requests, %llu spills):\n",
              replicas, static_cast<unsigned long long>(fleet_total),
              static_cast<unsigned long long>(fleet_spills));
  std::printf("%-10s %10s %8s %8s %8s %8s %8s\n", "", "requests", "nginx",
              "node", "origin", "p2p", "failed");
  const auto print_shares = [](const char* label, const TierShares& s,
                               std::uint64_t total) {
    std::printf("%-10s %10llu %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
                label, static_cast<unsigned long long>(total),
                100.0 * s.share(s.nginx), 100.0 * s.share(s.node_store),
                100.0 * s.share(s.origin), 100.0 * s.share(s.p2p),
                total == 0 ? 0.0
                           : 100.0 * static_cast<double>(s.failed) /
                                 static_cast<double>(total));
  };
  print_shares("aggregate", fleet_shares, fleet_total);
  for (std::size_t r = 0; r < replicas; ++r)
    print_shares(("r" + std::to_string(r)).c_str(), replica_shares[r],
                 replica_totals[r]);
  std::printf("origin cache: %.1f MiB used; TinyLFU: %llu admission "
              "rejections, %llu sketch halvings\n",
              static_cast<double>(origin_used) / (1024.0 * 1024.0),
              static_cast<unsigned long long>(admission_rejections),
              static_cast<unsigned long long>(sketch_halvings));
  std::printf("centralization: fleet absorbs %.1f%% of completed requests "
              "(P2P sees %.1f%%)\n",
              100.0 * absorbed_share, 100.0 * (1.0 - absorbed_share));

  // ---- Rebalance panel -----------------------------------------------------
  const RebalancePanel rebalance =
      run_rebalance_panel(replicas, 64, 20'000);
  std::printf("\nrebalance: removing 1 of %zu replicas moved %zu/%zu keys "
              "(%.1f%%; removed owned %.1f%%), %zu illegal, re-add "
              "restored=%s\n",
              replicas, rebalance.moved, rebalance.keys,
              100.0 * static_cast<double>(rebalance.moved) /
                  static_cast<double>(rebalance.keys),
              100.0 * rebalance.removed_share, rebalance.illegal_moves,
              rebalance.restored ? "yes" : "NO");

  // ---- Artifact ------------------------------------------------------------
  const char* artifact_env = std::getenv("IPFS_BENCH_ARTIFACT");
  const std::string artifact_path =
      artifact_env != nullptr && artifact_env[0] != '\0'
          ? artifact_env
          : "bench_ablation_gateway_fleet.jsonl";
  std::ofstream artifact(artifact_path, std::ios::trunc);
  const auto dump_shares = [&](const std::string& series, const TierShares& s,
                               std::uint64_t total) {
    artifact << "{\"bench\":\"ablation_gateway_fleet\",\"series\":\"" << series
             << "\",\"requests\":" << total << ",\"nginx\":" << s.nginx
             << ",\"node_store\":" << s.node_store << ",\"origin\":" << s.origin
             << ",\"p2p\":" << s.p2p << ",\"failed\":" << s.failed << "}\n";
  };
  dump_shares("baseline", baseline, baseline_total);
  dump_shares("fleet", fleet_shares, fleet_total);
  for (std::size_t r = 0; r < replicas; ++r)
    dump_shares("replica_r" + std::to_string(r), replica_shares[r],
                replica_totals[r]);
  artifact << "{\"bench\":\"ablation_gateway_fleet\",\"series\":\"summary\","
           << "\"absorbed_share\":" << absorbed_share
           << ",\"spills\":" << fleet_spills
           << ",\"admission_rejections\":" << admission_rejections
           << ",\"rebalance_moved\":" << rebalance.moved
           << ",\"rebalance_keys\":" << rebalance.keys << "}\n";

  // ---- Gates ---------------------------------------------------------------
  bool pass = true;
  const auto gate = [&](bool ok, const char* desc) {
    std::printf("%s %s\n", ok ? "gate:    " : "FAIL:    ", desc);
    if (!ok) pass = false;
  };

  std::printf("\n");
  gate(baseline_total == base_requests && fleet_total == fleet_requests,
       "both arms completed their full request volume");
  const double baseline_cache = baseline.share(baseline.nginx);
  const double fleet_cache =
      fleet_shares.share(fleet_shares.nginx + fleet_shares.origin);
  std::printf("cache hit share: baseline nginx=%.1f%% fleet edge+origin="
              "%.1f%%\n",
              100.0 * baseline_cache, 100.0 * fleet_cache);
  gate(fleet_cache >= baseline_cache,
       "fleet edge+origin hit share >= single-gateway nginx share at 10x");
  gate(absorbed_share >= 0.80,
       "fleet absorbs >80% of completed requests (paper's combined-cache "
       "bound)");
  bool replica_uniform = true, all_routed = true;
  for (std::size_t r = 0; r < replicas; ++r) {
    if (replica_totals[r] == 0) all_routed = false;
    if (replica_totals[r] < fleet_total / (replicas * 20)) continue;
    if (std::abs(replica_shares[r].share(replica_shares[r].nginx) -
                 fleet_shares.share(fleet_shares.nginx)) > 0.15 ||
        std::abs(replica_shares[r].share(replica_shares[r].p2p) -
                 fleet_shares.share(fleet_shares.p2p)) > 0.15)
      replica_uniform = false;
  }
  gate(all_routed, "every replica served routed traffic");
  gate(replica_uniform,
       "per-replica tier shares within 15 points of the fleet aggregate");
  gate(labels_conserve,
       "per-replica labeled counters sum exactly to the aggregate tiers");
  gate(rebalance.illegal_moves == 0 &&
           static_cast<double>(rebalance.moved) <=
               1.5 * static_cast<double>(rebalance.keys) /
                   static_cast<double>(replicas),
       "replica removal moves <= ~1/N of keys, all owned by the removed "
       "replica");
  gate(rebalance.restored, "re-adding the replica restores the exact "
       "pre-removal assignment");

  std::printf("artifact: %s\n", artifact_path.c_str());
  return pass ? 0 : 1;
}
