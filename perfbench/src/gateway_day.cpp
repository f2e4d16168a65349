// gateway_day: Section 6.3's diurnal double-peak Zipf traffic through a
// GatewayFleet, against a churning world with one region partition and
// heal. An open loop in simulated time: arrivals are simulated events, so
// the generator cannot run late, and each latency counts from the
// request's scheduled arrival. The catalog is larger than the edge and
// origin caches, so all four tiers serve. This is the read path: cache
// hits, singleflight and the negative cache save work, and every P2P-tier
// byte is SHA-256-verified on arrival. The 24 h horizon (churn sessions,
// the 11.5 h provider re-seed) is also the sparse-timer case.
#include <algorithm>
#include <array>
#include <memory>

#include "adversary/adversary.h"
#include "bench.h"
#include "dht/key.h"
#include "dht/lookup.h"
#include "gateway/fleet.h"
#include "merkledag/merkledag.h"
#include "node/ipfs_node.h"
#include "scenario/scenario.h"
#include "world/geography.h"
#include "workload/gateway_workload.h"

namespace perfbench {

namespace {

using ipfs::gateway::ServedFrom;

struct DaySize {
  std::size_t peers;
  std::size_t catalog;
  std::uint64_t requests;
  std::size_t replicas;
  std::uint64_t edge_mib;    // per replica
  std::uint64_t origin_mib;  // shared
};

DaySize day_size(Size size) {
  return size == Size::kFull ? DaySize{2'000, 300, 10'000, 4, 2, 8}
                             : DaySize{300, 30, 1'500, 2, 2, 4};
}

constexpr std::size_t kHosts = 4;
constexpr int kDayHours = 24;
// The southern regions (South America, Africa, the Middle East,
// Australia) lose contact with the rest of the world for two hours in the
// middle of the day, then heal. No content host is cut off, so walks
// slow down and no request fails.
constexpr double kPartitionStartHours = 8;
constexpr double kPartitionHealHours = 10;
// The day's request trace (catalog, popularity ranks, arrivals) is one
// fixed day, like the paper's single gateway log; --seed varies the world
// it is replayed against (peers, churn, routing tables, latencies). A
// seeded catalog would move the P2P tier's bytes, and with them the host
// time, by a third from seed to seed.
constexpr std::uint64_t kTraceSeed = 0x6A7E0D1A;
// Fig 11a's log-normal object sizes scaled down five-fold (median 120 KB,
// cap 800 KB), so that a day with over a thousand P2P-tier fetches fits
// the run; the caches are scaled with them.
constexpr double kObjectMedianBytes = 120.0 * 1024;
constexpr std::uint64_t kObjectCapBytes = 800 * 1024;
// Payload kept for the traced run's crypto::sha256 timing.
constexpr std::size_t kPayloadKeepBytes = 32u << 20;

// Provider records for `key` placed directly on the k closest world
// peers: the steady state after a (re)publication, without simulating the
// catalog's publication walks, which this workload does not measure.
// `peer_keys` holds every world peer's DHT key, in world order.
void seed_provider_records(ipfs::world::World& world,
                           const std::vector<ipfs::dht::Key>& peer_keys,
                           const ipfs::dht::Key& key,
                           const ipfs::dht::PeerRef& provider) {
  struct Scored {
    std::array<std::uint8_t, 32> distance;
    std::size_t index;
  };
  std::vector<Scored> scored;
  scored.reserve(peer_keys.size());
  for (std::size_t i = 0; i < peer_keys.size(); ++i)
    scored.push_back({peer_keys[i].distance_to(key), i});
  const std::size_t take =
      std::min<std::size_t>(ipfs::dht::kReplication, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + take, scored.end(),
                    [](const Scored& a, const Scored& b) {
                      return a.distance < b.distance;
                    });
  for (std::size_t i = 0; i < take; ++i) {
    world.dht(scored[i].index)
        .record_store()
        .add_provider(key, ipfs::dht::ProviderRecord{provider, world.now()});
  }
}

ipfs::adversary::AttackConfig partition_config() {
  using namespace ipfs::world;
  ipfs::adversary::PartitionConfig partition;
  partition.groups = {{kSaEast, kAfSouth, kMeSouth, kApSoutheast},
                      {kUsEast, kUsWest, kEuCentral, kAsiaEast}};
  partition.start = ipfs::sim::hours(kPartitionStartHours);
  partition.heal_at = ipfs::sim::hours(kPartitionHealHours);
  ipfs::adversary::AttackConfig config;
  config.partition = partition;
  return config;
}

}  // namespace

std::map<std::string, std::uint64_t> gateway_day_sizes(Size size) {
  const DaySize s = day_size(size);
  return {{"peers", s.peers},
          {"catalog", s.catalog},
          {"requests", s.requests},
          {"replicas", s.replicas},
          {"edge_mib", s.edge_mib},
          {"origin_mib", s.origin_mib},
          {"hosts", kHosts},
          {"hours", kDayHours}};
}

Rep run_gateway_day(const RepContext& ctx) {
  const DaySize size = day_size(ctx.size);
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

  // The fleet: beefy, reliable US replicas (the sampled ipfs.io instance
  // is in the US), each with a TinyLFU edge cache over a shared origin
  // tier.
  std::unique_ptr<ipfs::gateway::GatewayFleet> fleet;
  {
    SpanLog::Scope span(spans, "gateway.fleet_build");
    ipfs::gateway::FleetConfig config;
    config.replicas = size.replicas;
    config.replica.node.net.region = ipfs::world::kUsEast;
    config.replica.node.net.upload_bytes_per_sec = 200.0 * 1024 * 1024;
    config.replica.node.net.download_bytes_per_sec = 200.0 * 1024 * 1024;
    config.replica.node.identity_seed = 0x6A7E;
    config.replica.node.provide_after_fetch = false;
    config.replica.nginx_cache_bytes = size.edge_mib << 20;
    config.origin_cache_bytes = size.origin_mib << 20;
    fleet = std::make_unique<ipfs::gateway::GatewayFleet>(world->network(),
                                                          config);
  }

  // Content hosts spread over four regions.
  std::vector<std::unique_ptr<ipfs::node::IpfsNode>> hosts;
  {
    SpanLog::Scope span(spans, "node.build");
    const int regions[kHosts] = {ipfs::world::kUsEast,
                                 ipfs::world::kEuCentral,
                                 ipfs::world::kAsiaEast, ipfs::world::kUsWest};
    for (std::size_t i = 0; i < kHosts; ++i) {
      ipfs::node::IpfsNodeConfig config;
      config.net.region = regions[i];
      config.net.upload_bytes_per_sec = 30.0 * 1024 * 1024;
      config.net.download_bytes_per_sec = 30.0 * 1024 * 1024;
      config.identity_seed = 0x405700 + i;
      hosts.push_back(
          std::make_unique<ipfs::node::IpfsNode>(world->network(), config));
    }
  }
  // Constructed after every honest node, armed when the day starts.
  auto partition = std::make_unique<ipfs::adversary::AttackPlan>(
      world->network(), partition_config(), ctx.seed);

  {
    SpanLog::Scope span(spans, "node.bootstrap");
    fleet->bootstrap(world->bootstrap_refs(), [](bool) {});
    for (auto& host : hosts)
      host->bootstrap(world->bootstrap_refs(), [](bool) {});
    span.add_events(drive(*world, spans, rep));
  }
  rep.laps.setup.push_back(clock.lap());

  ipfs::workload::GatewayWorkloadConfig workload_config;
  workload_config.catalog_size = size.catalog;
  workload_config.requests_total = size.requests;
  workload_config.duration = ipfs::sim::hours(kDayHours);
  workload_config.size_median_bytes = kObjectMedianBytes;
  workload_config.size_cap_bytes = kObjectCapBytes;
  auto day = std::make_unique<ipfs::workload::GatewayWorkload>(
      workload_config, ipfs::sim::Rng(kTraceSeed).fork("gateway-workload"));

  // Catalog import: hosts hold everything; the pinned share also lives
  // in its ring owner's node store.
  auto& catalog = day->catalog();
  std::vector<ipfs::dht::Key> peer_keys;
  {
    SpanLog::Scope span(spans, "dht.peer_keys");
    peer_keys.reserve(world->size());
    for (std::size_t i = 0; i < world->size(); ++i)
      peer_keys.push_back(ipfs::dht::Key::for_peer(world->ref(i).id));
  }
  double import_s = 0;
  double imported_bytes = 0;
  std::size_t kept_bytes = 0;
  for (std::size_t rank = 0; rank < catalog.size(); ++rank) {
    const std::vector<std::uint8_t> bytes = day->object_bytes(rank);
    const std::size_t host = rank % hosts.size();
    {
      SpanLog::Scope span(spans, "merkledag.import");
      catalog[rank].cid = hosts[host]->add(bytes).root;
      import_s += span.close();
    }
    catalog[rank].host = host;
    imported_bytes += static_cast<double>(bytes.size());
    if (catalog[rank].pinned) {
      SpanLog::Scope span(spans, "merkledag.pin");
      const auto pinned = fleet->pin_object(bytes);
      import_s += span.close();
      imported_bytes += static_cast<double>(bytes.size());
      if (pinned != catalog[rank].cid)
        rep.check_failures.push_back("pinned root differs from the host's");
    }
    {
      SpanLog::Scope span(spans, "dht.seed_providers");
      const ipfs::dht::Key key = ipfs::dht::Key::for_cid(catalog[rank].cid);
      seed_provider_records(*world, peer_keys, key, hosts[host]->self());
      // The 12 h republish, as a re-seed mid-day.
      world->network().schedule_daemon_after(
          ipfs::sim::hours(11.5),
          [&world = *world, &peer_keys, key, ref = hosts[host]->self()] {
            seed_provider_records(world, peer_keys, key, ref);
          });
    }
    if (ctx.keep_payloads && kept_bytes + bytes.size() <= kPayloadKeepBytes) {
      kept_bytes += bytes.size();
      rep.payloads.push_back(bytes);
    }
    rep.laps.setup.push_back(clock.lap());
  }
  rep.layer["merkledag.import_s"] = import_s;
  rep.layer["merkledag.import_mib_per_s"] =
      ratio(imported_bytes / (1024.0 * 1024.0), import_s);

  // The day: arrivals are simulated events; driven in simulated-hour
  // slices, then drained so requests in flight at midnight complete.
  partition->arm();
  day->run(*fleet);
  const ipfs::sim::Time day_start = world->now();
  for (int hour = 1; hour <= kDayHours; ++hour) {
    drive_until(*world, day_start + ipfs::sim::hours(hour), spans, rep,
                "sim.drive_hour");
    rep.laps.measured.push_back(clock.lap());
  }
  drive(*world, spans, rep, "sim.drain");
  rep.laps.measured.push_back(clock.lap());

  // Per-request results.
  const auto& log = day->log();
  std::vector<double> latencies;
  std::vector<double> p2p_latencies;
  latencies.reserve(log.size());
  for (const auto& entry : log) {
    ++rep.attempted;
    if (entry.source == ServedFrom::kFailed) {
      ++rep.failed;
      continue;
    }
    ++rep.completed;
    latencies.push_back(ipfs::sim::to_seconds(entry.latency));
    if (entry.source == ServedFrom::kP2p)
      p2p_latencies.push_back(ipfs::sim::to_seconds(entry.latency));
    if (entry.bytes != catalog[entry.catalog_rank].size)
      rep.check_failures.push_back("request for rank " +
                                   std::to_string(entry.catalog_rank) +
                                   " served the wrong number of bytes");
  }
  // The workload's latency is the IPFS retrieval behind the fleet: the
  // requests it had to serve from the P2P network. The cache tiers' modelled
  // latencies do not depend on the network, and most requests hit them.
  record_latency(rep, "sim_", p2p_latencies, /*with_p99=*/true);
  record_latency(rep, "gateway.p2p_", p2p_latencies, /*with_p99=*/false);
  record_latency(rep, "gateway.request_", latencies, /*with_p99=*/true);

  rep.layer["gateway.p2p_p50_s"] = rep.simulated["gateway.p2p_p50_s"];

  // Output checks: conservation across the tiers, the registry and the
  // requests issued, and the hosts' copies against the generator.
  std::uint64_t tier_sum = 0;
  for (const auto source : {ServedFrom::kNginxCache, ServedFrom::kNodeStore,
                            ServedFrom::kOriginCache, ServedFrom::kP2p,
                            ServedFrom::kFailed}) {
    tier_sum += fleet->aggregate(source).requests;
  }
  read_registry(world->network().metrics(), rep);
  rep.layer["transport.tx.dropped"] += static_cast<double>(
      partition->counters().partition_messages_dropped);
  if (tier_sum != fleet->total_requests() ||
      rep.samples["gateway.requests"] != tier_sum ||
      rep.samples["gateway.tier_sum"] != tier_sum ||
      log.size() != size.requests || tier_sum != size.requests) {
    rep.check_failures.push_back(
        "conservation: tiers " + std::to_string(tier_sum) + ", fleet " +
        std::to_string(fleet->total_requests()) + ", registry " +
        std::to_string(rep.samples["gateway.requests"]) + ", log " +
        std::to_string(log.size()) + ", issued " +
        std::to_string(size.requests));
  }
  {
    SpanLog::Scope span(spans, "merkledag.verify");
    for (std::size_t rank = 0; rank < catalog.size(); ++rank) {
      const auto stored = ipfs::merkledag::cat(
          hosts[catalog[rank].host]->store(), catalog[rank].cid);
      if (!stored || *stored != day->object_bytes(rank))
        rep.check_failures.push_back("host copy of rank " +
                                     std::to_string(rank) + " differs");
    }
    rep.layer["merkledag.verify_s"] = span.close();
  }
  rep.simulated["fail_share"] = ratio(static_cast<double>(rep.failed),
                                      static_cast<double>(rep.attempted));
  for (const char* name :
       {"gateway.edge_hit_share", "gateway.node_store_share",
        "gateway.origin_hit_share", "gateway.p2p_share",
        "gateway.fleet_absorb_share"}) {
    rep.simulated[name] = rep.layer[name];
  }

  rep.laps.tail.push_back(clock.lap());
  export_registry(world->network().metrics(), spans, rep);
  rep.laps.tail.push_back(clock.lap());
  {
    SpanLog::Scope span(spans, "world.teardown");
    partition.reset();
    day.reset();
    hosts.clear();
    fleet.reset();
    world.reset();
    rep.layer["world.teardown_s"] = span.close();
  }
  rep.laps.tail.push_back(clock.lap());
  rep.not_exercised = {"crawler.peers_found",
                       "crawler.dialable_share",
                       "dht.publish_walk_p50_s",
                       "dht.publish_rpc_batch_p50_s",
                       "dht.retrieve_walk_p50_s",
                       "node.retrieve_dial_p50_s",
                       "bitswap.discovery_p50_s",
                       "bitswap.fetch_p50_s"};
  return rep;
}

}  // namespace perfbench
