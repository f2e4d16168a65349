// publish_retrieve: the Section 4.3 experiment through
// workload::PerfExperiment. Six region nodes take turns publishing a
// fresh 0.5 MB object, the other five retrieve it, and the nodes
// disconnect between cycles. A closed loop, and the write path beside
// gateway_day's reads: content import, DHT ADD_PROVIDER walks, and
// provider lookups for content no cache has seen. Its simulated delays
// are the paper's Fig 9 quantities. It runs few simulator events, so
// event-core changes should barely move it.
#include <memory>

#include "bench.h"
#include "merkledag/merkledag.h"
#include "scenario/scenario.h"
#include "workload/perf_experiment.h"
#include "world/world.h"

namespace perfbench {

namespace {

struct PublishRetrieveSize {
  std::size_t peers;
  std::size_t cycles;
};

// 210 cycles give 1050 retrievals, so the retrieval p99 has at least ten
// samples beyond it while fewer than 1% of retrievals fail.
PublishRetrieveSize pr_size(Size size) {
  return size == Size::kFull ? PublishRetrieveSize{6'000, 210}
                             : PublishRetrieveSize{300, 6};
}

constexpr std::size_t kPayloadKeepBytes = 32u << 20;
// The experiment spans about four simulated hours; a simulated day is
// the give-up point.
constexpr ipfs::sim::Duration kSlice = ipfs::sim::minutes(2);
constexpr int kMaxSlices = 30 * 24;

}  // namespace

std::map<std::string, std::uint64_t> publish_retrieve_sizes(Size size) {
  const PublishRetrieveSize s = pr_size(size);
  const ipfs::workload::PerfExperimentConfig defaults;
  return {{"peers", s.peers},
          {"cycles", s.cycles},
          {"nodes", ipfs::workload::aws_regions().size()},
          {"object_bytes", defaults.object_bytes}};
}

Rep run_publish_retrieve(const RepContext& ctx) {
  const PublishRetrieveSize size = pr_size(ctx.size);
  SpanLog& spans = ctx.spans;
  Rep rep;
  Stopwatch clock;

  std::unique_ptr<ipfs::world::World> world;
  {
    SpanLog::Scope span(spans, "world.build");
    world = ipfs::scenario::ScenarioBuilder()
                .peers(size.peers)
                .seed(ctx.seed)
                .build_world();
    rep.layer["world.build_s"] = span.close();
  }
  rep.laps.setup.push_back(clock.lap());
  std::unique_ptr<ipfs::workload::PerfExperiment> experiment;
  {
    SpanLog::Scope span(spans, "node.build");
    ipfs::workload::PerfExperimentConfig config;
    config.cycles = size.cycles;
    experiment =
        std::make_unique<ipfs::workload::PerfExperiment>(*world, config);
  }
  rep.laps.setup.push_back(clock.lap());

  // The experiment bootstraps its nodes and then runs every cycle inside
  // the program, so the measured phase includes the bootstrap. Driven in
  // slices of simulated time, one lap each, then drained.
  bool done = false;
  experiment->run([&] { done = true; });
  const ipfs::sim::Time start = world->now();
  for (int slice = 1; !done && slice <= kMaxSlices; ++slice) {
    drive_until(*world, start + slice * kSlice, spans, rep);
    rep.laps.measured.push_back(clock.lap());
  }
  drive(*world, spans, rep, "sim.drain");
  rep.laps.measured.push_back(clock.lap());
  if (!done) rep.check_failures.push_back("experiment did not complete");

  const auto& results = experiment->results();
  std::vector<double> publish_totals, publish_walks, publish_batches;
  std::vector<double> retrieval_totals, retrieve_walks, dials, discoveries,
      fetches;
  for (const auto& [region, traces] : results.publishes) {
    for (const auto& trace : traces) {
      ++rep.attempted;
      if (!trace.ok) {
        ++rep.failed;
        continue;
      }
      ++rep.completed;
      publish_totals.push_back(ipfs::sim::to_seconds(trace.total));
      publish_walks.push_back(ipfs::sim::to_seconds(trace.walk));
      publish_batches.push_back(ipfs::sim::to_seconds(trace.rpc_batch));
    }
  }
  for (const auto& [region, traces] : results.retrievals) {
    for (const auto& trace : traces) {
      ++rep.attempted;
      if (!trace.ok) {
        ++rep.failed;
        continue;
      }
      ++rep.completed;
      retrieval_totals.push_back(ipfs::sim::to_seconds(trace.total));
      discoveries.push_back(ipfs::sim::to_seconds(trace.bitswap_discovery));
      fetches.push_back(ipfs::sim::to_seconds(trace.fetch));
      if (!trace.bitswap_hit) {
        retrieve_walks.push_back(ipfs::sim::to_seconds(trace.dht_walks()));
        dials.push_back(ipfs::sim::to_seconds(trace.dial));
      }
    }
  }
  record_latency(rep, "sim_", retrieval_totals, /*with_p99=*/true);
  record_latency(rep, "sim_publish_", publish_totals, /*with_p99=*/false);
  record_latency(rep, "dht.publish_walk_", publish_walks, false);
  record_latency(rep, "dht.publish_rpc_batch_", publish_batches, false);
  record_latency(rep, "dht.retrieve_walk_", retrieve_walks, false);
  record_latency(rep, "node.retrieve_dial_", dials, false);
  record_latency(rep, "bitswap.discovery_", discoveries, false);
  record_latency(rep, "bitswap.fetch_", fetches, false);
  for (const char* name :
       {"dht.publish_walk_p50_s", "dht.publish_rpc_batch_p50_s",
        "dht.retrieve_walk_p50_s", "node.retrieve_dial_p50_s",
        "bitswap.discovery_p50_s", "bitswap.fetch_p50_s"}) {
    rep.layer[name] = rep.simulated[name];
  }
  rep.simulated["fail_share"] = ratio(static_cast<double>(rep.failed),
                                      static_cast<double>(rep.attempted));

  // Output check: every successful retrieval holds the publisher's bytes.
  {
    SpanLog::Scope span(spans, "merkledag.verify");
    const auto& regions = ipfs::workload::aws_regions();
    std::map<std::string, std::size_t> node_of;
    for (std::size_t i = 0; i < regions.size(); ++i)
      node_of[regions[i].name] = i;
    std::map<std::string, std::vector<std::uint8_t>> published;
    for (const auto& [region, traces] : results.publishes) {
      for (const auto& trace : traces) {
        if (!trace.ok) continue;
        auto bytes = ipfs::merkledag::cat(
            experiment->node(node_of.at(region)).store(), trace.cid);
        if (!bytes) {
          rep.check_failures.push_back("publisher in " + region +
                                       " lost its object");
          continue;
        }
        published[trace.cid.to_string()] = std::move(*bytes);
      }
    }
    std::size_t kept_bytes = 0;
    for (const auto& [region, traces] : results.retrievals) {
      for (const auto& trace : traces) {
        if (!trace.ok) continue;
        const auto bytes = ipfs::merkledag::cat(
            experiment->node(node_of.at(region)).store(), trace.cid);
        const auto source = published.find(trace.cid.to_string());
        if (!bytes || source == published.end() || *bytes != source->second)
          rep.check_failures.push_back("retrieval in " + region +
                                       " differs from the publisher's bytes");
      }
    }
    rep.layer["merkledag.verify_s"] = span.close();
    if (ctx.keep_payloads) {
      for (auto& [cid, bytes] : published) {
        if (kept_bytes + bytes.size() > kPayloadKeepBytes) break;
        kept_bytes += bytes.size();
        rep.payloads.push_back(std::move(bytes));
      }
    }
  }

  read_registry(world->network().metrics(), rep);
  rep.laps.tail.push_back(clock.lap());
  export_registry(world->network().metrics(), spans, rep);
  rep.laps.tail.push_back(clock.lap());
  {
    SpanLog::Scope span(spans, "world.teardown");
    experiment.reset();
    world.reset();
    rep.layer["world.teardown_s"] = span.close();
  }
  rep.laps.tail.push_back(clock.lap());
  rep.not_exercised = {"crawler.peers_found",     "crawler.dialable_share",
                       "merkledag.import_s",      "merkledag.import_mib_per_s",
                       "gateway.p2p_p50_s",       "gateway.edge_hit_share",
                       "gateway.node_store_share", "gateway.origin_hit_share",
                       "gateway.p2p_share",       "gateway.fleet_absorb_share",
                       "gateway.p2p.coalesced",   "gateway.negative.hits",
                       "gateway.fleet.spills"};
  return rep;
}

}  // namespace perfbench
