// census: build a 100k-peer world and crawl it (paper Section 4.1,
// Fig 4a). A closed loop: one crawler, rounds 30 simulated minutes
// apart. World build, teardown, the dense event core and DHT FIND_NODE
// serving do nearly all the work, and nothing is hashed as content, so
// this is the workload that shows world and event-core changes and the
// one that bypasses crypto/merkledag/gateway changes.
#include <memory>
#include <optional>

#include "bench.h"
#include "crawler/crawler.h"
#include "scenario/scenario.h"
#include "world/geography.h"
#include "world/world.h"

namespace perfbench {

namespace {

struct CensusSize {
  std::size_t peers;
  std::size_t rounds;
};

CensusSize census_size(Size size) {
  return size == Size::kFull ? CensusSize{100'000, 2} : CensusSize{2'000, 2};
}

// Crawl rounds are driven in slices of simulated time (a 100k round
// takes about 3.9 simulated hours), and given up after a simulated day.
constexpr ipfs::sim::Duration kSlice = ipfs::sim::minutes(10);
constexpr int kMaxSlices = 6 * 24;

// The paper's crawls saw about 55% of discovered peers dialable
// (Fig 4a); the simulated population is calibrated to it.
constexpr double kDialableLow = 0.45;
constexpr double kDialableHigh = 0.65;

}  // namespace

std::map<std::string, std::uint64_t> census_sizes(Size size) {
  const CensusSize s = census_size(size);
  return {{"peers", s.peers}, {"rounds", s.rounds}};
}

Rep run_census(const RepContext& ctx) {
  const CensusSize size = census_size(ctx.size);
  SpanLog& spans = ctx.spans;
  Rep rep;
  Stopwatch clock;

  std::unique_ptr<ipfs::world::World> world;
  {
    SpanLog::Scope span(spans, "world.build");
    // Routing tables capped at 64 pre-seeded entries beyond 20k peers,
    // as the repo's census does, so a 100k world fits in memory.
    world = ipfs::scenario::ScenarioBuilder()
                .peers(size.peers)
                .seed(ctx.seed)
                .max_routing_entries(size.peers > 20'000 ? 64 : 192)
                .build_world();
    rep.layer["world.build_s"] = span.close();
  }
  const ipfs::sim::NodeId crawler_node = world->network().add_node(
      ipfs::sim::NodeConfig()
          .with_region(ipfs::world::kEuCentral)
          .with_bandwidth(100.0 * 1024 * 1024, 100.0 * 1024 * 1024));
  rep.laps.setup.push_back(clock.lap());

  std::vector<double> crawl_durations;
  std::vector<double> round_durations;
  std::size_t last_total = 0;
  std::size_t last_dialable = 0;
  for (std::size_t round = 0; round < size.rounds; ++round) {
    SpanLog::Scope span(spans, "crawler.round");
    ipfs::crawler::Crawler crawler(world->network(), crawler_node,
                                   world->bootstrap_refs());
    std::optional<ipfs::crawler::CrawlResult> result;
    crawler.crawl(
        [&](ipfs::crawler::CrawlResult r) { result = std::move(r); });
    // Driven in slices of simulated time, one lap each.
    const ipfs::sim::Time start = world->now();
    for (int slice = 1; !result && slice <= kMaxSlices; ++slice) {
      span.add_events(
          drive_until(*world, start + slice * kSlice, spans, rep));
      rep.laps.measured.push_back(clock.lap());
    }
    ++rep.attempted;
    if (!result) {
      ++rep.failed;
      rep.check_failures.push_back("crawl round " + std::to_string(round) +
                                   " did not complete");
    } else {
      rep.completed += result->total();
      for (const auto& observation : result->observations) {
        if (observation.reached)
          crawl_durations.push_back(
              ipfs::sim::to_seconds(observation.crawl_duration));
      }
      round_durations.push_back(
          ipfs::sim::to_seconds(result->finished_at - result->started_at));
      last_total = result->total();
      last_dialable = result->dialable();
      if (result->total() != world->size()) {
        rep.check_failures.push_back(
            "crawl round " + std::to_string(round) + " found " +
            std::to_string(result->total()) + " of " +
            std::to_string(world->size()) + " peers");
      }
    }
    span.add_events(drive_until(*world,
                                world->now() + ipfs::sim::minutes(30), spans,
                                rep));
    rep.laps.measured.push_back(clock.lap());
  }

  // Simulated outputs: the crawl round is the operation whose duration is
  // reported. Per-peer RPC times cluster by region (about 30, 110 and
  // 230 ms from Frankfurt), and their median jumps between clusters from
  // seed to seed, so they are printed but not the headline.
  rep.simulated["sim_p50_s"] = median(round_durations);
  rep.samples["sim_samples"] = round_durations.size();
  record_latency(rep, "crawler.rpc_", crawl_durations, /*with_p99=*/true);
  rep.simulated["crawler.peers_found"] = static_cast<double>(last_total);
  const double dialable_share = ratio(static_cast<double>(last_dialable),
                                      static_cast<double>(last_total));
  rep.simulated["crawler.dialable_share"] = dialable_share;
  rep.layer["crawler.peers_found"] = static_cast<double>(last_total);
  rep.layer["crawler.dialable_share"] = dialable_share;
  if (dialable_share < kDialableLow || dialable_share > kDialableHigh) {
    rep.check_failures.push_back("dialable share " +
                                 std::to_string(dialable_share) +
                                 " outside the paper's band");
  }

  read_registry(world->network().metrics(), rep);
  rep.laps.tail.push_back(clock.lap());
  export_registry(world->network().metrics(), spans, rep);
  rep.laps.tail.push_back(clock.lap());
  {
    SpanLog::Scope span(spans, "world.teardown");
    world.reset();
    rep.layer["world.teardown_s"] = span.close();
  }
  rep.laps.tail.push_back(clock.lap());
  rep.not_exercised = {"dht.publish_walk_p50_s",
                       "dht.publish_rpc_batch_p50_s",
                       "dht.retrieve_walk_p50_s",
                       "node.retrieve_dial_p50_s",
                       "bitswap.discovery_p50_s",
                       "bitswap.fetch_p50_s",
                       "merkledag.import_s",
                       "merkledag.import_mib_per_s",
                       "merkledag.verify_s",
                       "crypto.sha256_mib_per_s",
                       "gateway.p2p_p50_s",
                       "gateway.edge_hit_share",
                       "gateway.node_store_share",
                       "gateway.origin_hit_share",
                       "gateway.p2p_share",
                       "gateway.fleet_absorb_share",
                       "gateway.p2p.coalesced",
                       "gateway.negative.hits",
                       "gateway.fleet.spills"};
  return rep;
}

}  // namespace perfbench
