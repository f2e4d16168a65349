// Micro-benchmarks of the hot primitives (google-benchmark): hashing,
// signatures, CID/multiaddr codecs, routing-table queries, chunking.
#include <benchmark/benchmark.h>

#include "crypto/ed25519.h"
#include "crypto/sha256.h"
#include "crypto/sha256_compress.h"
#include "dht/routing_table.h"
#include "merkledag/merkledag.h"
#include "multiformats/cid.h"
#include "multiformats/multiaddr.h"
#include "scenario/scenario.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "world/world.h"

namespace {

using namespace ipfs;

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

// 38 bytes is an encoded PeerId, which dht::Key::for_peer hashes on every
// routing-table update and lookup; 256 KiB is a full chunk. The label names
// the compress path this CPU runs.
void BM_Sha256(benchmark::State& state) {
  const auto data = random_bytes(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(crypto::sha256_compress_hw() != nullptr ? "sha-ni" : "scalar");
}
BENCHMARK(BM_Sha256)->Arg(38)->Arg(64)->Arg(4096)->Arg(256 * 1024);

void BM_Ed25519Sign(benchmark::State& state) {
  crypto::Ed25519Seed seed{};
  seed[0] = 7;
  const auto keypair = crypto::ed25519_keypair(seed);
  const auto message = random_bytes(256, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::ed25519_sign(keypair, message));
  }
}
BENCHMARK(BM_Ed25519Sign);

void BM_Ed25519Verify(benchmark::State& state) {
  crypto::Ed25519Seed seed{};
  seed[0] = 8;
  const auto keypair = crypto::ed25519_keypair(seed);
  const auto message = random_bytes(256, 3);
  const auto signature = crypto::ed25519_sign(keypair, message);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::ed25519_verify(keypair.public_key, message, signature));
  }
}
BENCHMARK(BM_Ed25519Verify);

void BM_CidFromData(benchmark::State& state) {
  const auto data = random_bytes(4096, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        multiformats::Cid::from_data(multiformats::Multicodec::kRaw, data));
  }
}
BENCHMARK(BM_CidFromData);

void BM_CidParseBase32(benchmark::State& state) {
  const auto cid =
      multiformats::Cid::from_data(multiformats::Multicodec::kRaw,
                                   random_bytes(100, 5));
  const auto text = cid.to_string();
  for (auto _ : state) {
    benchmark::DoNotOptimize(multiformats::Cid::parse(text));
  }
}
BENCHMARK(BM_CidParseBase32);

void BM_MultiaddrParse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        multiformats::Multiaddr::parse("/ip4/147.75.83.83/tcp/4001"));
  }
}
BENCHMARK(BM_MultiaddrParse);

void BM_RoutingTableClosest(benchmark::State& state) {
  dht::PeerDirectory directory;
  dht::RoutingTable table(directory,
                          dht::Key::for_peer(world::synthetic_peer_id(0)));
  for (std::uint64_t i = 1; i <= 4000; ++i) {
    table.upsert(dht::PeerRef{world::synthetic_peer_id(i),
                              static_cast<sim::NodeId>(i),
                              {}});
  }
  const dht::Key target = dht::Key::hash_of(random_bytes(32, 6));
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.closest(target, 20));
  }
}
BENCHMARK(BM_RoutingTableClosest);

void BM_ChunkAndBuildDag(benchmark::State& state) {
  const auto data = random_bytes(512 * 1024, 7);
  for (auto _ : state) {
    blockstore::BlockStore store;
    benchmark::DoNotOptimize(merkledag::import_bytes(store, data));
  }
  state.SetBytesProcessed(state.iterations() * 512 * 1024);
}
BENCHMARK(BM_ChunkAndBuildDag);

// --- event core -----------------------------------------------------
//
// The three workloads that dominate simulation runs: pure scheduling
// throughput, schedule-then-cancel churn (every network timeout that
// never fires), and full drain in timestamp order.

void BM_SchedulerSchedule(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator simulator;
    sim::Rng rng(11);
    for (std::size_t i = 0; i < n; ++i) {
      simulator.schedule_after(
          sim::milliseconds(rng.uniform(0.0, 30'000.0)), [] {});
    }
    benchmark::DoNotOptimize(simulator.pending_events());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SchedulerSchedule)
    ->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

void BM_SchedulerCancel(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<sim::Timer> timers;
  timers.reserve(n);
  for (auto _ : state) {
    sim::Simulator simulator;
    sim::Rng rng(12);
    timers.clear();
    for (std::size_t i = 0; i < n; ++i) {
      timers.push_back(simulator.schedule_after(
          sim::milliseconds(rng.uniform(0.0, 30'000.0)), [] {}));
    }
    for (auto& timer : timers) timer.cancel();
    benchmark::DoNotOptimize(simulator.foreground_pending());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SchedulerCancel)
    ->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

void BM_SchedulerDrain(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator simulator;
    sim::Rng rng(13);
    for (std::size_t i = 0; i < n; ++i) {
      simulator.schedule_after(
          sim::milliseconds(rng.uniform(0.0, 30'000.0)), [] {});
    }
    benchmark::DoNotOptimize(simulator.run());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SchedulerDrain)
    ->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

void BM_WorldConstruction(benchmark::State& state) {
  for (auto _ : state) {
    const auto world = scenario::ScenarioBuilder()
                           .peers(static_cast<std::size_t>(state.range(0)))
                           .seed(1)
                           .build_world();
    benchmark::DoNotOptimize(world->size());
  }
}
BENCHMARK(BM_WorldConstruction)->Arg(200)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
