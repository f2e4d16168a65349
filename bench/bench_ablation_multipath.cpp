// Ablation: multi-path Bitswap sessions (the optimization of the
// paper's reference [20], "Accelerating Content Routing with Bitswap: A
// Multi-Path File Transfer Protocol in IPFS and Filecoin").
//
// Once several peers hold an object (every retriever becomes a
// temporary provider, Section 3.1), striping block requests across them
// aggregates their uplinks. This bench fetches objects of growing size
// from 1, 2 and 4 providers.
#include <cstdio>
#include <deque>

#include "bitswap/session.h"
#include "common.h"
#include "merkledag/merkledag.h"
#include "transport/sim_transport.h"

using namespace ipfs;

int main() {
  bench::print_header(
      "Ablation: multi-path Bitswap sessions (paper ref [20])",
      "hypothesis: provider uplinks aggregate; large objects download "
      "roughly providers-times faster");

  scenario::Scenario scenario = bench::scenario_builder(0)
                                    .world_geography()
                                    .build();
  sim::Simulator& simulator = scenario.simulator();
  sim::Network& network = scenario.network();

  // A well-connected requester; home-grade providers (3 MiB/s up).
  transport::SimTransport requester_endpoint(
      network, sim::NodeConfig()
                   .with_region(world::kEuCentral)
                   .with_download(100.0 * 1024 * 1024));
  const sim::NodeId requester_node = requester_endpoint.local();
  constexpr int kProviders = 4;
  sim::NodeId provider_nodes[kProviders];
  blockstore::BlockStore provider_stores[kProviders];
  std::deque<transport::SimTransport> provider_endpoints;
  std::vector<std::unique_ptr<bitswap::Bitswap>> provider_bitswaps;
  const int provider_regions[] = {world::kEuCentral, world::kUsEast,
                                  world::kAsiaEast, world::kUsWest};
  for (int i = 0; i < kProviders; ++i) {
    transport::SimTransport& endpoint = provider_endpoints.emplace_back(
        network, sim::NodeConfig()
                     .with_region(provider_regions[i])
                     .with_upload(3.0 * 1024 * 1024));
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

  std::printf("%-12s %14s %14s %14s %14s\n", "object", "1 provider",
              "2 providers", "4 providers", "speedup x4");
  sim::Rng content_rng(bench::run_seed() ^ 0x333);
  for (const std::size_t mib : {1, 4, 16}) {
    std::vector<std::uint8_t> data(mib * 1024 * 1024);
    for (auto& b : data) b = static_cast<std::uint8_t>(content_rng.next());
    multiformats::Cid root;
    for (int i = 0; i < kProviders; ++i)
      root = merkledag::import_bytes(provider_stores[i], data).root;

    double elapsed_seconds[3] = {0, 0, 0};
    const int provider_counts[3] = {1, 2, 4};
    for (int run = 0; run < 3; ++run) {
      blockstore::BlockStore store;
      bitswap::Bitswap requester(requester_endpoint, store);
      bitswap::Session session(requester);
      for (int i = 0; i < provider_counts[run]; ++i)
        session.add_peer(provider_nodes[i]);
      bitswap::SessionFetchStats stats;
      session.fetch_dag(root, [&](bitswap::SessionFetchStats s) {
        stats = s;
      });
      simulator.run();
      if (!stats.ok) {
        std::printf("fetch failed for %zu MiB with %d providers\n", mib,
                    provider_counts[run]);
        return 1;
      }
      elapsed_seconds[run] = sim::to_seconds(stats.elapsed);
    }

    std::printf("%9zu MiB %13.2fs %13.2fs %13.2fs %13.2fx\n", mib,
                elapsed_seconds[0], elapsed_seconds[1], elapsed_seconds[2],
                elapsed_seconds[0] / elapsed_seconds[2]);
  }

  std::printf("\nshape check: for bandwidth-bound objects the speedup "
              "approaches the\nprovider count; tiny objects stay "
              "latency-bound.\n");
  return 0;
}
