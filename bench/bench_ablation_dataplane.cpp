// Ablation: the persistent data plane (docs/BLOCKSTORE.md).
//
// Four gated legs, each isolating one claim of the Bitswap 1.2.0 +
// persistent-blockstore subsystem:
//
//   A. GB-scale DAG fetch: the same DAG walk (bitswap::Session) at 8
//      providers must beat it at one (Bitswap::fetch_dag, a one-peer
//      session) by >= 3x (the providers' uplinks aggregate, ref [20]).
//   B. Loss tolerance: the same 8-peer session still completes with 5%
//      message loss injected by a FaultPlan — dropped RPCs surface as
//      timeouts, the session reroutes, content still verifies.
//   C. Group fsync: the log-structured store over PosixStorage, put
//      all then one flush(), must sustain >= 5x the put throughput of
//      fsync-per-put on the same store (wall-clock).
//   D. Acked-put durability: a >= 300-seed crash sweep over the log
//      (every acked put readable after a seeded power cut).
//
// The bench self-gates: any failed leg prints FAIL and exits nonzero.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "bitswap/session.h"
#include "blockstore/persist/persistent_store.h"
#include "common.h"
#include "merkledag/merkledag.h"
#include "sim/faults.h"
#include "transport/sim_transport.h"

using namespace ipfs;

namespace {

// Imports `data` once, then shares the resulting BlockData pointers into
// every provider store — a 1 GB object must not be duplicated 8 times.
multiformats::Cid seed_providers(std::span<const std::uint8_t> data,
                                 blockstore::BlockStore* stores,
                                 int count) {
  const auto result = merkledag::import_bytes(stores[0], data);
  const auto cids = merkledag::enumerate(stores[0], result.root);
  for (int i = 1; i < count; ++i)
    for (const auto& cid : *cids)
      stores[i].put(blockstore::Block::verify(cid, stores[0].get(cid)).value());
  return result.root;
}

double wall_seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main() {
  bench::print_header(
      "Ablation: Bitswap 1.2.0 data plane + persistent blockstore",
      "gates: 8-peer session >= 3x serial fetch; completes at 5% loss; "
      "group fsync >= 5x fsync-per-put; 300-seed acked-crash sweep");

  const char* artifact_env = std::getenv("IPFS_BENCH_ARTIFACT");
  const std::string artifact_path =
      artifact_env ? artifact_env : "bench_ablation_dataplane.jsonl";
  std::ofstream artifact(artifact_path, std::ios::trunc);
  bool pass = true;

  // --- Leg A: 8-peer session vs single-peer serial fetch ------------------
  // Full scale moves a 1 GiB DAG; IPFS_BENCH_FAST keeps CI at 32 MiB
  // (same block count ratio, same shape — the speedup gate still binds).
  const std::size_t object_bytes = bench::env_size(
      "IPFS_BENCH_DATAPLANE_BYTES",
      bench::scaled(1024ull * 1024 * 1024, 32ull * 1024 * 1024));
  constexpr int kProviders = 8;

  scenario::Scenario scenario = bench::scenario_builder(0)
                                    .world_geography()
                                    .build();
  sim::Simulator& simulator = scenario.simulator();
  sim::Network& network = scenario.network();

  transport::SimTransport requester_endpoint(
      network, sim::NodeConfig()
                   .with_region(world::kEuCentral)
                   .with_download(100.0 * 1024 * 1024));
  const sim::NodeId requester_node = requester_endpoint.local();
  sim::NodeId provider_nodes[kProviders];
  blockstore::BlockStore provider_stores[kProviders];
  std::deque<transport::SimTransport> provider_endpoints;
  std::vector<std::unique_ptr<bitswap::Bitswap>> provider_bitswaps;
  const int provider_regions[] = {world::kEuCentral,   world::kUsEast,
                                  world::kAsiaEast,    world::kUsWest,
                                  world::kApSoutheast, world::kSaEast,
                                  world::kAfSouth,     world::kMeSouth};
  for (int i = 0; i < kProviders; ++i) {
    transport::SimTransport& endpoint = provider_endpoints.emplace_back(
        network, sim::NodeConfig()
                     .with_region(provider_regions[i])
                     .with_upload(4.0 * 1024 * 1024));
    provider_nodes[i] = endpoint.local();
    provider_bitswaps.push_back(
        std::make_unique<bitswap::Bitswap>(endpoint, provider_stores[i]));
    bitswap::Bitswap* bs = provider_bitswaps.back().get();
    network.set_request_handler(
        provider_nodes[i],
        [bs](sim::NodeId from, const sim::MessagePtr& message, auto respond) {
          bs->handle_request(from, message, respond);
        });
    network.connect(requester_node, provider_nodes[i],
                    [](bool, sim::Duration) {});
  }
  simulator.run();

  sim::Rng content_rng(bench::run_seed() ^ 0xdacaf);
  std::vector<std::uint8_t> object(object_bytes);
  for (auto& b : object) b = static_cast<std::uint8_t>(content_rng.next());
  const multiformats::Cid root =
      seed_providers(object, provider_stores, kProviders);

  // Serial baseline: fetch_dag, a one-peer session without the probe
  // (kFetchWindow wants in flight, no striping).
  double serial_seconds = 0.0;
  {
    blockstore::BlockStore store;
    bitswap::Bitswap requester(requester_endpoint, store);
    bitswap::FetchStats stats;
    requester.fetch_dag(provider_nodes[0], root,
                        [&](bitswap::FetchStats s) { stats = s; });
    simulator.run();
    if (!stats.ok) {
      std::printf("FAIL: serial baseline fetch did not complete\n");
      return 1;
    }
    serial_seconds = sim::to_seconds(stats.elapsed);
  }

  // 8-peer session.
  double session_seconds = 0.0;
  {
    blockstore::BlockStore store;
    bitswap::Bitswap requester(requester_endpoint, store);
    bitswap::SessionConfig config;
    config.window = 8 * bitswap::Bitswap::kFetchWindow;
    bitswap::Session session(requester, config);
    for (int i = 0; i < kProviders; ++i) session.add_peer(provider_nodes[i]);
    bitswap::SessionFetchStats stats;
    session.fetch_dag(root, [&](bitswap::SessionFetchStats s) { stats = s; });
    simulator.run();
    if (!stats.ok) {
      std::printf("FAIL: 8-peer session fetch did not complete\n");
      return 1;
    }
    const auto fetched = merkledag::cat(store, root);
    if (!fetched || *fetched != object) {
      std::printf("FAIL: 8-peer session content mismatch\n");
      return 1;
    }
    session_seconds = sim::to_seconds(stats.elapsed);
  }

  const double speedup = serial_seconds / session_seconds;
  std::printf("\nleg A: %zu MiB DAG, %d providers @ 4 MiB/s up\n",
              object_bytes / (1024 * 1024), kProviders);
  std::printf("%-24s %10.2fs\n", "  serial (1 peer)", serial_seconds);
  std::printf("%-24s %10.2fs\n", "  session (8 peers)", session_seconds);
  std::printf("%-24s %10.2fx  (gate: >= 3x)\n", "  speedup", speedup);
  if (speedup < 3.0) {
    std::printf("FAIL: session speedup %.2fx below the 3x gate\n", speedup);
    pass = false;
  }
  artifact << "{\"leg\":\"fetch\",\"object_bytes\":" << object_bytes
           << ",\"serial_s\":" << serial_seconds
           << ",\"session_s\":" << session_seconds
           << ",\"speedup\":" << speedup << "}\n";

  // --- Leg B: the same fetch at 5% message loss ---------------------------
  // Every dropped request/response surfaces as an RPC timeout; the
  // session must reroute around them. Transport failures are expected by
  // the hundreds here, so the lossy-link profile raises the per-peer
  // failure cap — the gate is completion + integrity, not peer hygiene.
  double lossy_seconds = 0.0;
  std::uint64_t lossy_retries = 0;
  {
    sim::FaultConfig faults;
    faults.drop_prob = 0.05;
    sim::FaultPlan plan(network, faults, bench::run_seed() ^ 0x105e);
    plan.arm();
    blockstore::BlockStore store;
    bitswap::Bitswap requester(requester_endpoint, store);
    bitswap::SessionConfig config;
    config.window = 8 * bitswap::Bitswap::kFetchWindow;
    config.max_peer_failures = 1ull << 32;  // lossy links, not dead peers
    bitswap::Session session(requester, config);
    for (int i = 0; i < kProviders; ++i) session.add_peer(provider_nodes[i]);
    bitswap::SessionFetchStats stats;
    session.fetch_dag(root, [&](bitswap::SessionFetchStats s) { stats = s; });
    simulator.run();
    plan.detach();
    const auto fetched = merkledag::cat(store, root);
    if (!stats.ok || !fetched || *fetched != object) {
      std::printf("FAIL: session fetch at 5%% loss did not complete intact\n");
      return 1;
    }
    lossy_seconds = sim::to_seconds(stats.elapsed);
    lossy_retries = stats.retried_blocks;
  }
  std::printf("\nleg B: same fetch at 5%% message loss\n");
  std::printf("%-24s %10.2fs  (%llu blocks retried; gate: completes)\n",
              "  session (8 peers)", lossy_seconds,
              static_cast<unsigned long long>(lossy_retries));
  artifact << "{\"leg\":\"loss\",\"drop_prob\":0.05,\"session_s\":"
           << lossy_seconds << ",\"retried_blocks\":" << lossy_retries
           << "}\n";

  // --- Leg C: group fsync vs fsync-per-put (wall clock) -------------------
  // Real disk, real fsync: PosixStorage in a scratch directory. The sim
  // clock does not model disk, so this leg times the host.
  namespace fs = std::filesystem;
  namespace persist = blockstore::persist;
  const fs::path scratch = fs::path("bench_dataplane_scratch");
  fs::remove_all(scratch);
  const std::size_t put_count = bench::scaled(8192, 2048);
  const std::size_t block_bytes = 1024;
  sim::Rng block_rng(bench::run_seed() ^ 0xb10c);
  std::vector<blockstore::Block> blocks;
  blocks.reserve(put_count);
  for (std::size_t i = 0; i < put_count; ++i) {
    std::vector<std::uint8_t> data(block_bytes);
    for (auto& b : data) b = static_cast<std::uint8_t>(block_rng.next());
    blocks.push_back(
        blockstore::Block::from_data(multiformats::Multicodec::kRaw, data));
  }

  double sync_seconds = 0.0;
  {
    persist::PersistentBlockStore store(
        std::make_unique<persist::PosixStorage>((scratch / "sync").string()));
    const auto start = std::chrono::steady_clock::now();
    for (const auto& block : blocks) {
      store.put(block);
      store.flush();  // fsync-per-put: each block acked individually
    }
    sync_seconds = wall_seconds(start);
  }
  double group_seconds = 0.0;
  {
    persist::PersistentBlockStore store(
        std::make_unique<persist::PosixStorage>((scratch / "group").string()));
    const auto start = std::chrono::steady_clock::now();
    for (const auto& block : blocks) store.put(block);
    store.flush();  // one group fsync acks the whole run
    group_seconds = wall_seconds(start);
  }
  fs::remove_all(scratch);

  const double put_ratio = sync_seconds / group_seconds;
  std::printf("\nleg C: %zu x %zu B puts on PosixStorage (wall clock)\n",
              put_count, block_bytes);
  std::printf("%-24s %10.3fs  (%.0f puts/s)\n", "  fsync-per-put",
              sync_seconds, put_count / sync_seconds);
  std::printf("%-24s %10.3fs  (%.0f puts/s)\n", "  group fsync",
              group_seconds, put_count / group_seconds);
  std::printf("%-24s %10.2fx  (gate: >= 5x)\n", "  throughput ratio",
              put_ratio);
  if (put_ratio < 5.0) {
    std::printf("FAIL: group fsync ratio %.2fx below the 5x gate\n",
                put_ratio);
    pass = false;
  }
  artifact << "{\"leg\":\"group_fsync\",\"puts\":" << put_count
           << ",\"sync_s\":" << sync_seconds << ",\"group_s\":"
           << group_seconds << ",\"ratio\":" << put_ratio << "}\n";

  // --- Leg D: >= 300-seed acked-put crash sweep ---------------------------
  // The log's durability line, hammered: random interleavings of put /
  // flush / crash over MemStorage; after every crash each block acked
  // (flushed after its put) must still be readable.
  const std::size_t sweep_seeds = 300;
  std::size_t sweep_crashes = 0;
  std::size_t sweep_acked_checked = 0;
  for (std::size_t s = 0; s < sweep_seeds; ++s) {
    sim::Rng rng(0xdacaf000ull + s);
    blockstore::StoreConfig config;
    config.segment_bytes = 8 * 1024;
    config.crash_seed = 0xdacaf000ull + s;
    persist::PersistentBlockStore store(
        std::make_unique<persist::MemStorage>(), config);
    std::vector<blockstore::Block> put_blocks;
    std::set<std::size_t> acked;      // durable: a flush completed after put
    std::set<std::size_t> unflushed;  // at risk until the next flush
    const int ops = 20 + static_cast<int>(rng.uniform_int(0, 40));
    for (int op = 0; op < ops; ++op) {
      const double dice = rng.uniform();
      if (dice < 0.6) {
        std::vector<std::uint8_t> data(64 + rng.uniform_int(0, 512));
        for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
        put_blocks.push_back(blockstore::Block::from_data(
            multiformats::Multicodec::kRaw, data));
        store.put(put_blocks.back());
        unflushed.insert(put_blocks.size() - 1);
      } else if (dice < 0.8) {
        store.flush();
        acked.insert(unflushed.begin(), unflushed.end());
        unflushed.clear();
      } else {
        store.handle_crash();
        ++sweep_crashes;
        unflushed.clear();  // never acked; the cut may have taken them
        for (const std::size_t index : acked) {
          const auto data = store.get(put_blocks[index].cid);
          ++sweep_acked_checked;
          if (!data || *data != *put_blocks[index].data) {
            std::printf("FAIL: seed %zu lost acked block %zu after crash\n",
                        s, index);
            return 1;
          }
        }
      }
    }
  }
  std::printf("\nleg D: acked-put crash sweep\n");
  std::printf("  %zu seeds, %zu crashes, %zu acked reads verified — "
              "no acked put lost\n",
              sweep_seeds, sweep_crashes, sweep_acked_checked);
  artifact << "{\"leg\":\"crash_sweep\",\"seeds\":" << sweep_seeds
           << ",\"crashes\":" << sweep_crashes << ",\"acked_checked\":"
           << sweep_acked_checked << "}\n";

  artifact << "{\"summary\":{\"speedup\":" << speedup
           << ",\"group_fsync_ratio\":" << put_ratio
           << ",\"crash_seeds\":" << sweep_seeds
           << ",\"pass\":" << (pass ? "true" : "false") << "}}\n";
  std::printf("\nartifact: %s\n", artifact_path.c_str());
  std::printf(pass ? "\nPASS: all data-plane gates hold\n"
                   : "\nFAIL: see gates above\n");
  return pass ? 0 : 1;
}
