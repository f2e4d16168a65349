#include "sim/fuzz_harness.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "adversary/adversary.h"
#include "blockstore/blockstore.h"
#include "dht/record_store.h"
#include "gateway/gateway.h"
#include "indexer/indexer.h"
#include "merkledag/merkledag.h"
#include "node/ipfs_node.h"
#include "pubsub/pubsub.h"
#include "routing/router.h"
#include "scenario/scenario.h"
#include "stats/jsonl.h"

namespace ipfs::simfuzz {

namespace {

// The first nodes are the bootstrap set: always dialable, never flaky,
// never crash-managed (real bootstrap infrastructure is the stable core
// the rest of the network re-joins through). Four of them, because
// AutoNAT upgrades a peer to DHT server only with more than
// dht::kAutonatThreshold (3) reachable dial-back probes, and in a cold
// world the bootstrap servers are the only peers whose dial-backs count.
constexpr std::size_t kBootstrapCount = 4;
constexpr int kRegions = 3;

std::vector<std::vector<double>> fuzz_latency_matrix() {
  // Three regions with asymmetric one-way latencies (ms), default jitter.
  return {{20.0, 60.0, 120.0}, {60.0, 15.0, 90.0}, {120.0, 90.0, 25.0}};
}

std::vector<std::uint8_t> deterministic_bytes(std::size_t n, sim::Rng& rng) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

const char* kind_name(OpRecord::Kind kind) {
  return kind == OpRecord::Kind::kPublish ? "publish" : "retrieve";
}

}  // namespace

sim::FaultConfig faults_for_scale(double scale, bool long_horizon) {
  sim::FaultConfig faults;
  if (scale <= 0.0) return faults;
  faults.drop_prob = 0.08 * scale;
  faults.duplicate_prob = 0.05 * scale;
  faults.reorder_prob = 0.10 * scale;
  faults.reorder_max_delay = sim::milliseconds(300);
  faults.dial_failure_prob = 0.15 * scale;
  faults.latency_spike_factor = 6.0;
  faults.latency_spike_duration = sim::seconds(15);
  if (long_horizon) {
    // Rates capped so a 26 h horizon stays a few thousand fault events.
    faults.latency_spikes_per_hour = 120.0 * scale;
    faults.connection_resets_per_hour = 120.0 * scale;
    faults.crashes_per_hour_per_node = 1.0 * scale;
    faults.min_downtime = sim::minutes(10);
    faults.max_downtime = sim::hours(2);
  } else {
    faults.latency_spikes_per_hour = 300.0 * scale;
    faults.connection_resets_per_hour = 400.0 * scale;
    faults.crashes_per_hour_per_node = 15.0 * scale;
    faults.min_downtime = sim::seconds(5);
    faults.max_downtime = sim::seconds(40);
  }
  return faults;
}

ScheduleParams make_schedule(std::uint64_t seed) {
  ScheduleParams params;
  params.seed = seed;
  sim::Rng rng = sim::Rng(seed).fork("schedule");
  params.node_count = static_cast<std::size_t>(rng.uniform_int(10, 24));
  params.nat_fraction = rng.uniform(0.0, 0.4);
  params.flaky_fraction = rng.uniform(0.0, 0.2);
  params.long_horizon = rng.chance(0.2);
  params.publish_count =
      static_cast<std::size_t>(rng.uniform_int(2, params.long_horizon ? 3 : 5));
  params.retrievals_per_object =
      static_cast<std::size_t>(rng.uniform_int(1, 4));
  params.min_object_bytes = 1 * 1024;
  params.max_object_bytes =
      static_cast<std::size_t>(rng.uniform_int(64, 512)) * 1024;
  params.workload_window = sim::minutes(rng.uniform(1.0, 3.0));
  params.fault_scale = rng.chance(0.2) ? 0.0 : rng.uniform(0.05, 1.0);
  params.faults = faults_for_scale(params.fault_scale, params.long_horizon);

  // Dedicated fork: adding the pubsub knobs must not shift any draw of
  // the pre-existing "schedule" stream, or every historical replay seed
  // would describe a different schedule.
  sim::Rng pubsub_rng = sim::Rng(seed).fork("schedule-pubsub");
  params.pubsub_topics =
      static_cast<std::size_t>(pubsub_rng.uniform_int(1, 3));
  params.pubsub_subscriber_fraction = pubsub_rng.uniform(0.2, 0.8);
  params.pubsub_publish_count = static_cast<std::size_t>(
      pubsub_rng.uniform_int(2, params.long_horizon ? 4 : 10));

  // Same deal for the delegated-routing knobs: their own fork, appended
  // after the earlier ones, so historical seeds keep their schedules.
  sim::Rng indexer_rng = sim::Rng(seed).fork("schedule-indexer");
  params.indexer_count =
      indexer_rng.chance(0.5)
          ? static_cast<std::size_t>(indexer_rng.uniform_int(1, 2))
          : 0;
  params.indexer_ingest_lag = sim::seconds(indexer_rng.uniform(1.0, 45.0));
  params.indexer_crashes = indexer_rng.chance(0.5);

  // Persistent-store knobs: own fork, same bit-identical-replay rule.
  sim::Rng persist_rng = sim::Rng(seed).fork("schedule-persist");
  params.persist_stores = persist_rng.chance(0.5);

  // Periodic flush cadence: own fork, appended after every earlier one
  // (bit-identical historical replays). Half the persist schedules arm
  // the daemon flush; on the rest only IpfsNode::add flushes, so puts
  // stay in the unsynced tail until a publish.
  sim::Rng flush_rng = sim::Rng(seed).fork("schedule-flush");
  params.persist_flush_interval_us =
      flush_rng.chance(0.5) ? flush_rng.uniform_int(50'000, 500'000) : 0;

  // Adversary knobs: own fork, appended after every earlier one. Every
  // draw happens unconditionally so the stream stays stable across knob
  // combinations; apply_attack_constraints then normalizes the result
  // (kNone switches the defenses off, keeping historical seeds
  // bit-identical to their pre-adversary schedules).
  sim::Rng adversary_rng = sim::Rng(seed).fork("schedule-adversary");
  const bool attacked = adversary_rng.chance(0.4);
  const auto attack_draw = adversary_rng.uniform_int(1, 5);
  params.attack = attacked ? static_cast<ScheduleParams::Attack>(attack_draw)
                           : ScheduleParams::Attack::kNone;
  params.diversity_cap =
      static_cast<std::size_t>(adversary_rng.uniform_int(0, 3));
  params.flash_requests =
      static_cast<std::size_t>(adversary_rng.uniform_int(6, 20));
  params.flash_dead_cid = adversary_rng.chance(0.5);
  apply_attack_constraints(params);
  return params;
}

const char* attack_name(ScheduleParams::Attack attack) {
  switch (attack) {
    case ScheduleParams::Attack::kNone:
      return "none";
    case ScheduleParams::Attack::kSybil:
      return "sybil";
    case ScheduleParams::Attack::kEclipse:
      return "eclipse";
    case ScheduleParams::Attack::kFlashCrowd:
      return "flash";
    case ScheduleParams::Attack::kChurnStorm:
      return "storm";
    case ScheduleParams::Attack::kPartition:
      return "partition";
  }
  return "none";
}

void apply_attack_constraints(ScheduleParams& params) {
  using Attack = ScheduleParams::Attack;
  switch (params.attack) {
    case Attack::kNone:
      // Defenses off: a no-attack schedule must stay bit-identical to
      // the pre-adversary harness.
      params.diversity_cap = 0;
      params.provider_quorum = 1;
      params.flash_requests = 0;
      params.flash_dead_cid = false;
      break;
    case Attack::kSybil:
      // The drawn cap stays (0 = defense off; invariant 13 binds when
      // it is armed). Sybil floods compose with any fault schedule.
      params.provider_quorum = 1;
      params.flash_requests = 0;
      break;
    case Attack::kEclipse:
      // Invariant 11 needs the indexer escape hatch to exist and nothing
      // else degrading retrievals: at least one healthy indexer with a
      // short ingest lag, no population faults, full defenses.
      params.long_horizon = false;
      params.fault_scale = 0.0;
      params.faults = faults_for_scale(0.0, false);
      params.indexer_count = std::max<std::size_t>(params.indexer_count, 1);
      params.indexer_crashes = false;
      params.indexer_ingest_lag =
          std::min<sim::Duration>(params.indexer_ingest_lag, sim::seconds(2));
      params.diversity_cap = std::max<std::size_t>(params.diversity_cap, 2);
      params.provider_quorum = 3;
      params.flash_requests = 0;
      break;
    case Attack::kFlashCrowd:
      // Invariant 12 (exactly-once completion) must not be masked by a
      // crashed requester taking its callback with it.
      params.long_horizon = false;
      params.faults = faults_for_scale(params.fault_scale, false);
      params.faults.crashes_per_hour_per_node = 0.0;
      params.diversity_cap = 0;
      params.provider_quorum = 1;
      params.flash_requests = std::max<std::size_t>(params.flash_requests, 4);
      break;
    case Attack::kChurnStorm:
      // The storm is the only crash source: a crash cycle would draw
      // from the fault plan's process stream and change the run every
      // storm seed replays.
      params.long_horizon = false;
      params.faults = faults_for_scale(params.fault_scale, false);
      params.faults.crashes_per_hour_per_node = 0.0;
      params.diversity_cap = 0;
      params.provider_quorum = 1;
      params.flash_requests = 0;
      break;
    case Attack::kPartition:
      params.long_horizon = false;
      params.faults = faults_for_scale(params.fault_scale, false);
      params.diversity_cap = 0;
      params.provider_quorum = 1;
      params.flash_requests = 0;
      break;
  }
}

std::string ScheduleParams::describe() const {
  std::ostringstream out;
  out << "schedule{seed=" << seed << " nodes=" << node_count
      << " nat=" << nat_fraction << " flaky=" << flaky_fraction
      << " publishes=" << publish_count
      << " retrievals_per_object=" << retrievals_per_object
      << " object_bytes=[" << min_object_bytes << "," << max_object_bytes
      << "] window_s=" << sim::to_seconds(workload_window)
      << " long_horizon=" << (long_horizon ? 1 : 0)
      << " fault_scale=" << fault_scale << " drop=" << faults.drop_prob
      << " dup=" << faults.duplicate_prob << " reorder=" << faults.reorder_prob
      << " dial_fail=" << faults.dial_failure_prob
      << " spikes_per_h=" << faults.latency_spikes_per_hour
      << " resets_per_h=" << faults.connection_resets_per_hour
      << " crashes_per_h_per_node=" << faults.crashes_per_hour_per_node
      << " downtime_s=[" << sim::to_seconds(faults.min_downtime) << ","
      << sim::to_seconds(faults.max_downtime) << "]"
      << " pubsub_topics=" << pubsub_topics
      << " pubsub_sub_frac=" << pubsub_subscriber_fraction
      << " pubsub_publishes=" << pubsub_publish_count
      << " indexers=" << indexer_count
      << " indexer_ingest_lag_s=" << sim::to_seconds(indexer_ingest_lag)
      << " indexer_crashes=" << (indexer_crashes ? 1 : 0)
      << " persist_stores=" << (persist_stores ? 1 : 0)
      << " persist_flush_interval_us=" << persist_flush_interval_us
      << " attack=" << attack_name(attack)
      << " diversity_cap=" << diversity_cap
      << " provider_quorum=" << provider_quorum
      << " flash_requests=" << flash_requests
      << " flash_dead_cid=" << (flash_dead_cid ? 1 : 0) << "}\n"
      << "replay: IPFS_FUZZ_SEED=" << seed
      << " IPFS_FUZZ_SCHEDULES=1 ./tests/simfuzz_test";
  return out.str();
}

std::size_t ScheduleStats::publishes_ok() const {
  std::size_t count = 0;
  for (const auto& op : ops)
    if (op.kind == OpRecord::Kind::kPublish && op.completed && op.ok) ++count;
  return count;
}

std::size_t ScheduleStats::retrievals_attempted() const {
  std::size_t count = 0;
  for (const auto& op : ops)
    if (op.kind == OpRecord::Kind::kRetrieve && op.attempted) ++count;
  return count;
}

std::size_t ScheduleStats::retrievals_ok() const {
  std::size_t count = 0;
  for (const auto& op : ops)
    if (op.kind == OpRecord::Kind::kRetrieve && op.completed && op.ok) ++count;
  return count;
}

std::string ScheduleStats::fingerprint() const {
  std::ostringstream out;
  out << "bytes=" << bytes_fetched << " events=" << events_executed
      << " faults{drop=" << faults.messages_dropped
      << " dup=" << faults.messages_duplicated
      << " reorder=" << faults.messages_reordered
      << " dial=" << faults.dials_failed << " spike=" << faults.latency_spikes
      << " reset=" << faults.connection_resets
      << " crash=" << faults.crashes << " restart=" << faults.restarts
      << "}\n"
      << "pubsub{publishes=" << pubsub_publishes
      << " deliveries=" << pubsub_deliveries
      << " dedup=" << pubsub_duplicates << "}\n"
      << "indexer{crashes=" << indexer_crashes
      << " routed=" << indexer_routed << "}\n"
      << "attack{events=" << attack_events << " flash_fired=" << flash_fired
      << " flash_done=" << flash_completions
      << " flash_retry_fired=" << flash_repeat_fired
      << " flash_retry_done=" << flash_repeat_completions
      << " flash_negative_hits=" << flash_negative_hits
      << " sybil_rejected=" << sybil_rejections << "}\n";
  auto sorted = ops;
  std::sort(sorted.begin(), sorted.end(),
            [](const OpRecord& a, const OpRecord& b) {
              if (a.start != b.start) return a.start < b.start;
              if (a.kind != b.kind) return a.kind < b.kind;
              if (a.node != b.node) return a.node < b.node;
              return a.object < b.object;
            });
  for (const auto& op : sorted) {
    out << kind_name(op.kind) << " obj=" << op.object << " node=" << op.node
        << " start_us=" << op.start << " attempted=" << op.attempted
        << " completed=" << op.completed << " ok=" << op.ok
        << " elapsed_us=" << op.elapsed << "\n";
  }
  return out.str();
}

std::string ScheduleReport::failure_summary() const {
  std::ostringstream out;
  out << params.describe() << "\n";
  if (violations.empty()) {
    out << "no invariant violations";
    return out.str();
  }
  out << violations.size() << " invariant violation(s):";
  for (const auto& violation : violations) out << "\n  - " << violation;
  if (!trace_jsonl.empty()) {
    out << "\ntrace dump: " << trace_jsonl.size() << " bytes of JSONL";
    if (!trace_dump_path.empty()) out << " written to " << trace_dump_path;
  }
  return out.str();
}

ScheduleReport run_schedule(const ScheduleParams& params) {
  ScheduleReport report;
  report.params = params;
  std::vector<std::string>& violations = report.violations;
  ScheduleStats& stats = report.stats;

  sim::Rng base_rng(params.seed);
  sim::Rng world_rng = base_rng.fork("fuzz-world");
  sim::Rng workload_rng = base_rng.fork("fuzz-workload");

  // Keep the flight recorder bounded: a 26 h long-horizon schedule emits
  // far more trace events than a post-mortem needs, and the registry
  // counts what it drops (trace_dropped) so the dump is honest about it.
  scenario::Scenario fabric =
      scenario::ScenarioBuilder()
          .seed(params.seed)
          .regions(fuzz_latency_matrix())
          .trace_capacity(200'000)
          .indexers(params.indexer_count)
          .indexer_config(indexer::IndexerConfig().with_ingest_lag(
              params.indexer_ingest_lag))
          .build();
  sim::Network& network = fabric.network();

  // The builder appends indexer nodes before the population below, so
  // the world's NodeIds start past them; node_index maps back to the
  // `nodes` vector (identity when the schedule has no indexers).
  const std::size_t node_id_offset = fabric.indexer_count();
  const auto node_index = [node_id_offset](sim::NodeId id) {
    return static_cast<std::size_t>(id) - node_id_offset;
  };

  // ---- World -------------------------------------------------------------
  const std::size_t node_count = std::max(params.node_count, kBootstrapCount + 2);
  std::vector<std::unique_ptr<node::IpfsNode>> nodes;
  std::vector<bool> is_stable(node_count, false);  // dialable and not flaky
  nodes.reserve(node_count);
  for (std::size_t i = 0; i < node_count; ++i) {
    node::IpfsNodeConfig config;
    config.net.region = static_cast<int>(world_rng.uniform_int(0, kRegions - 1));
    config.identity_seed = params.seed ^ (0x9e3779b97f4a7c15ULL * (i + 1));
    config.net.transport =
        world_rng.chance(0.3) ? sim::Transport::kQuic : sim::Transport::kTcp;
    config.enable_pubsub = true;
    // 26 simulated hours at the default 1 s heartbeat would swamp the
    // event count with idle mesh maintenance; long-horizon schedules
    // coarsen the heartbeat instead (mesh repair just converges slower).
    if (params.long_horizon) config.pubsub.with_heartbeat(sim::seconds(30));
    if (fabric.indexer_count() > 0) config.routing = fabric.routing_config();
    // Defense knobs (docs/ADVERSARY.md): kNone schedules carry the
    // defaults (cap 0, quorum 1), so the config stays bit-identical.
    config.provider_quorum = params.provider_quorum;
    config.bucket_diversity_cap = params.diversity_cap;
    if (params.persist_stores) {
      config.store.backend = blockstore::StoreConfig::Backend::kPersistent;
      config.store.flush_interval_us = params.persist_flush_interval_us;
      // Small segments so crash replays walk several files, and a
      // per-node crash seed so each restart tears a different tail.
      config.store.segment_bytes = 256 * 1024;
      config.store.crash_seed =
          params.seed ^ (0xda3e39cb94b95bdbULL * (i + 1));
    }
    bool stable = true;
    if (i >= kBootstrapCount) {
      if (world_rng.chance(params.nat_fraction)) {
        config.net.dialable = false;
        // NAT'ed peers keep a relay to a bootstrap node (DCUtR), so they
        // can still serve as temporary providers after a fetch.
        config.net.relay = static_cast<std::uint32_t>(i % kBootstrapCount);
        stable = false;
      } else if (world_rng.chance(params.flaky_fraction)) {
        config.net.dial_success_prob = 0.6;
        stable = false;
      }
    }
    is_stable[i] = stable;
    nodes.push_back(std::make_unique<node::IpfsNode>(network, config));
  }

  std::vector<std::size_t> stable_nodes;
  for (std::size_t i = 0; i < node_count; ++i)
    if (is_stable[i]) stable_nodes.push_back(i);

  // The bootstrap trio is configured as DHT servers and knows about each
  // other from the start (real bootstrap infrastructure does not discover
  // itself via AutoNAT).
  for (std::size_t i = 0; i < kBootstrapCount; ++i) {
    nodes[i]->dht().force_mode(dht::DhtNode::Mode::kServer);
    for (std::size_t j = 0; j < kBootstrapCount; ++j)
      if (j != i) nodes[i]->dht().routing_table().upsert(nodes[j]->self());
  }

  // Seed set: the four bootstrap servers plus at most one stable extra.
  // AutoNAT probes at most 5 connected seeds and only server-mode peers
  // vouch for reachability, so the bootstrap quorum must dominate the
  // probe set for dialable peers to upgrade to server mode.
  const auto seeds_for = [&](std::size_t index) {
    std::vector<dht::PeerRef> seeds;
    for (std::size_t i = 0; i < kBootstrapCount; ++i)
      if (i != index) seeds.push_back(nodes[i]->self());
    for (const std::size_t i : stable_nodes) {
      if (i < kBootstrapCount || i == index) continue;
      seeds.push_back(nodes[i]->self());
      break;
    }
    return seeds;
  };

  // ---- Phase 1: faultless bootstrap --------------------------------------
  // Bootstrap servers only dial each other (a DHT bootstrap would run
  // AutoNAT against too few servers and downgrade them to clients); the
  // rest join through them, staggered 200 ms apart.
  std::vector<int> bootstrap_ok(node_count, -1);
  for (std::size_t i = 0; i < kBootstrapCount; ++i) {
    bootstrap_ok[i] = 1;
    for (std::size_t j = i + 1; j < kBootstrapCount; ++j)
      network.connect(nodes[i]->node(), nodes[j]->node(),
                      [](bool, sim::Duration) {});
  }
  for (std::size_t i = kBootstrapCount; i < node_count; ++i) {
    network.schedule_after(
        sim::milliseconds(200.0 * static_cast<double>(i)), [&, i] {
          nodes[i]->bootstrap(seeds_for(i), [&, i](bool ok) {
            bootstrap_ok[i] = ok ? 1 : 0;
          });
        });
  }
  stats.events_executed += network.run();
  for (std::size_t i = 0; i < node_count; ++i) {
    if (bootstrap_ok[i] != 1) {
      std::ostringstream out;
      out << "node " << i << " failed to bootstrap in the faultless phase "
          << "(result=" << bootstrap_ok[i] << ")";
      violations.push_back(out.str());
    }
  }

  // ---- Pubsub overlay ----------------------------------------------------
  // Dedicated workload fork: the gossip overlay draws nothing from the
  // pre-existing world/workload streams.
  sim::Rng pubsub_rng = base_rng.fork("fuzz-pubsub");
  const std::size_t topic_count = params.pubsub_topics;

  // Subscriber sets. Every topic needs at least two members for a mesh
  // to exist; top up from the bootstrap set when the draw comes short.
  std::vector<std::vector<std::size_t>> topic_subscribers(topic_count);
  std::vector<std::vector<std::size_t>> node_topics(node_count);
  for (std::size_t t = 0; t < topic_count; ++t) {
    auto& subs = topic_subscribers[t];
    for (std::size_t i = 0; i < node_count; ++i)
      if (pubsub_rng.chance(params.pubsub_subscriber_fraction))
        subs.push_back(i);
    for (std::size_t i = 0; subs.size() < 2 && i < kBootstrapCount; ++i)
      if (std::find(subs.begin(), subs.end(), i) == subs.end())
        subs.push_back(i);
    for (const std::size_t i : subs) node_topics[i].push_back(t);
  }

  // Ambient peer discovery: a random candidate sample per node, plus a
  // ring over each topic's subscribers so the announce graph is always
  // connected (a subscriber whose random sample contains no co-subscriber
  // would otherwise never learn of the mesh). Kept per node so the
  // restart path can re-add the same candidates, like a real daemon
  // re-reading its address book.
  std::vector<std::vector<std::size_t>> pubsub_candidates(node_count);
  const auto add_candidate = [&](std::size_t i, std::size_t peer) {
    if (peer == i) return;
    auto& list = pubsub_candidates[i];
    if (std::find(list.begin(), list.end(), peer) == list.end())
      list.push_back(peer);
  };
  const std::size_t candidate_target = std::min<std::size_t>(8, node_count - 1);
  for (std::size_t i = 0; i < node_count; ++i)
    while (pubsub_candidates[i].size() < candidate_target)
      add_candidate(i, static_cast<std::size_t>(pubsub_rng.uniform_int(
                           0, static_cast<std::int64_t>(node_count) - 1)));
  for (std::size_t t = 0; t < topic_count; ++t) {
    const auto& subs = topic_subscribers[t];
    if (subs.size() < 2) continue;
    for (std::size_t k = 0; k < subs.size(); ++k)
      add_candidate(subs[k], subs[(k + 1) % subs.size()]);
  }

  const auto topic_name = [](std::size_t t) {
    return pubsub::Topic("fuzz/topic-") + std::to_string(t);
  };

  // Per-(subscriber, topic) delivery counts: invariant 7 (at-most-once)
  // is checked inline at delivery time, so a duplicate is caught even if
  // a later crash would have wiped the ledger.
  std::vector<std::vector<std::map<pubsub::MessageId, int>>> pubsub_seen(
      node_count, std::vector<std::map<pubsub::MessageId, int>>(topic_count));
  const auto subscribe_node = [&](std::size_t i, std::size_t t) {
    nodes[i]->pubsub()->subscribe(
        topic_name(t), [&, i, t](const pubsub::PubsubMessage& message) {
          ++stats.pubsub_deliveries;
          const int count = ++pubsub_seen[i][t][message.id];
          if (count > 1) {
            std::ostringstream out;
            out << "pubsub at-most-once violated: node " << i
                << " delivered " << message.topic << " id{origin="
                << message.id.origin << " seqno=" << message.id.seqno
                << "} " << count << " times";
            violations.push_back(out.str());
          }
        });
  };

  for (std::size_t i = 0; i < node_count; ++i)
    for (const std::size_t peer : pubsub_candidates[i])
      nodes[i]->pubsub()->add_candidate_peer(nodes[peer]->node());
  for (std::size_t t = 0; t < topic_count; ++t)
    for (const std::size_t i : topic_subscribers[t]) subscribe_node(i, t);
  // Faultless mesh formation, mirroring the faultless DHT bootstrap: the
  // fault plan then exercises repair of a formed mesh, not formation.
  // Grafting happens on heartbeats (daemon events), which a plain run()
  // never reaches once the announces drain — drive the clock through a
  // few heartbeat rounds explicitly.
  const sim::Duration mesh_settle =
      4 * nodes[0]->pubsub()->config().heartbeat_interval + sim::seconds(5);
  stats.events_executed += network.run_until(network.now() + mesh_settle);
  stats.events_executed += network.run();

  // ---- Fault plan + crash wiring -----------------------------------------
  sim::FaultConfig fault_config = params.faults;
  if (params.attack == ScheduleParams::Attack::kChurnStorm) {
    fault_config.churn_storm = sim::ChurnStormConfig{
        .fraction = 0.4,
        .start = sim::seconds(1),
        .window = std::min<sim::Duration>(params.workload_window,
                                          sim::seconds(45)),
        .min_downtime = sim::seconds(10),
        .max_downtime = sim::seconds(40)};
  }
  sim::FaultPlan plan(network, fault_config, params.seed);
  std::vector<std::vector<sim::Time>> crash_times(node_count);
  plan.add_crash_listener([&](sim::NodeId node_id, bool online) {
    const std::size_t index = node_index(node_id);
    if (!online) {
      crash_times[index].push_back(network.now());
      nodes[index]->handle_crash();
      // The crash wiped the engine's dedup cache, so one redelivery of
      // anything seen before the crash is legitimate: reset the
      // at-most-once ledger along with it.
      for (auto& per_topic : pubsub_seen[index]) per_topic.clear();
    } else {
      nodes[index]->handle_restart(seeds_for(index), [](bool) {});
      // Like a real daemon, the restarted process re-reads its address
      // book and topic list and re-joins its meshes.
      for (const std::size_t peer : pubsub_candidates[index])
        nodes[index]->pubsub()->add_candidate_peer(nodes[peer]->node());
      for (const std::size_t t : node_topics[index]) subscribe_node(index, t);
    }
  });
  for (std::size_t i = kBootstrapCount; i < node_count; ++i)
    plan.manage_crashes(nodes[i]->node());

  // ---- Indexer crash schedule --------------------------------------------
  // Harness-scheduled (not FaultPlan-drawn) so the dedicated fork leaves
  // every pre-existing fault stream bit-identical: each indexer crashes
  // once at a random point in the workload window and restarts after a
  // short downtime with an empty index — the soft state only refills via
  // fresh advertisements, so the race router must carry the fetches on
  // its DHT arm meanwhile (invariant 10).
  sim::Rng indexer_rng = base_rng.fork("fuzz-indexer");
  if (params.indexer_crashes) {
    for (std::size_t i = 0; i < fabric.indexer_count(); ++i) {
      const sim::Duration crash_at = sim::seconds(indexer_rng.uniform(
          0.0, sim::to_seconds(params.workload_window)));
      const sim::Duration downtime =
          sim::seconds(indexer_rng.uniform(10.0, 60.0));
      network.schedule_after(crash_at, [&, i, downtime] {
        const sim::NodeId id = fabric.indexer(i).node();
        network.set_online(id, false);
        fabric.indexer(i).handle_crash();
        ++stats.indexer_crashes;
        network.schedule_after(downtime, [&, i, id] {
          network.set_online(id, true);
          fabric.indexer(i).handle_restart();
        });
      });
    }
  }

  // ---- Workload construction ---------------------------------------------
  struct FuzzObject {
    std::vector<std::uint8_t> data;
    multiformats::Cid cid;  // filled at publish time (add() is deterministic)
    std::size_t publisher = 0;
    sim::Duration offset = 0;  // publish time after workload start
    bool published_locally = false;
  };
  std::vector<FuzzObject> objects(params.publish_count);
  const std::size_t retrievals_total =
      params.publish_count * params.retrievals_per_object;
  // Pre-sized op table: callbacks index into it, so it must never
  // reallocate while the simulation runs.
  stats.ops.assign(params.publish_count + retrievals_total, OpRecord{});

  struct PlannedRetrieval {
    std::size_t op_index;
    std::size_t retriever;
    sim::Duration delay_after_publish;
  };
  std::vector<std::vector<PlannedRetrieval>> planned(params.publish_count);

  const sim::Duration window = params.workload_window;
  for (std::size_t oi = 0; oi < params.publish_count; ++oi) {
    FuzzObject& object = objects[oi];
    const auto size = static_cast<std::size_t>(workload_rng.uniform_int(
        static_cast<std::int64_t>(params.min_object_bytes),
        static_cast<std::int64_t>(params.max_object_bytes)));
    object.data = deterministic_bytes(size, workload_rng);
    object.publisher = stable_nodes[static_cast<std::size_t>(
        workload_rng.uniform_int(0,
                                 static_cast<std::int64_t>(stable_nodes.size()) - 1))];

    OpRecord& publish_op = stats.ops[oi];
    publish_op.kind = OpRecord::Kind::kPublish;
    publish_op.object = oi;
    publish_op.node = nodes[object.publisher]->node();

    for (std::size_t r = 0; r < params.retrievals_per_object; ++r) {
      PlannedRetrieval retrieval;
      retrieval.op_index = params.publish_count +
                           oi * params.retrievals_per_object + r;
      do {
        retrieval.retriever = static_cast<std::size_t>(workload_rng.uniform_int(
            0, static_cast<std::int64_t>(node_count) - 1));
      } while (retrieval.retriever == object.publisher);
      const double max_delay_s =
          params.long_horizon ? 25.0 * 3600.0 : sim::to_seconds(window) / 2.0;
      retrieval.delay_after_publish =
          sim::seconds(workload_rng.uniform(1.0, max_delay_s));
      OpRecord& op = stats.ops[retrieval.op_index];
      op.kind = OpRecord::Kind::kRetrieve;
      op.object = oi;
      op.node = nodes[retrieval.retriever]->node();
      planned[oi].push_back(retrieval);
    }

    object.offset =
        sim::seconds(workload_rng.uniform(0.0, sim::to_seconds(window) / 4.0));
  }

  // ---- Attack plan (docs/ADVERSARY.md) -----------------------------------
  // Constructed after every honest node so attacker NodeIds append last
  // (a no-attack schedule keeps its ids and rng streams bit-identical),
  // and armed only after the fault plan arms — the partition decorator
  // wraps whatever injector is installed at that moment.
  std::unique_ptr<adversary::AttackPlan> attack;
  // Flash crowds are driven through an HTTP gateway (the entity a real
  // crowd melts), so invariant 12 checks the singleflight and the
  // negative-result shield on the path they actually protect. Only flash
  // schedules construct one, keeping every other schedule's node ids and
  // rng streams bit-identical.
  std::unique_ptr<gateway::Gateway> flash_gateway;
  multiformats::Cid flash_cid;
  std::vector<int> flash_fired(params.flash_requests, 0);
  std::vector<int> flash_completed(params.flash_requests, 0);
  std::vector<int> flash_ok(params.flash_requests, 0);
  // Dead-CID retry wave: each client re-requests 5 s after its failure,
  // inside the gateway's 30 s negative TTL.
  std::vector<int> flash_repeat_fired(params.flash_requests, 0);
  std::vector<int> flash_repeat_completed(params.flash_requests, 0);
  std::vector<int> flash_repeat_ok(params.flash_requests, 0);
  if (params.attack != ScheduleParams::Attack::kNone) {
    adversary::AttackConfig attack_config;
    switch (params.attack) {
      case ScheduleParams::Attack::kSybil: {
        adversary::SybilConfig sybil;
        sybil.per_victim = 6;
        sybil.target_cpl = 6;
        sybil.start = sim::seconds(1);
        sybil.rounds = 2;
        sybil.interval = sim::seconds(20);
        attack_config.sybil = sybil;
        break;
      }
      case ScheduleParams::Attack::kEclipse: {
        // The eclipsed CID is the schedule's first object. add() is
        // deterministic, so a scratch import yields the exact CID the
        // publisher will produce mid-run.
        blockstore::BlockStore scratch;
        attack_config.eclipse_target = dht::Key::for_cid(
            merkledag::import_bytes(scratch, objects[0].data).root);
        // A full replication set of attackers absorbs the entire store
        // batch; min_cpl 8 out-distances any honest peer in these small
        // worlds at 1/16th the default mining cost.
        attack_config.eclipse.min_cpl = 8;
        attack_config.eclipse.announce_at = 0;
        break;
      }
      case ScheduleParams::Attack::kFlashCrowd: {
        adversary::FlashCrowdConfig flash;
        flash.requests = params.flash_requests;
        flash.start = sim::seconds(5);
        flash.window = std::max<sim::Duration>(sim::seconds(1), window / 2);
        attack_config.flash_crowd = flash;
        blockstore::BlockStore scratch;
        if (params.flash_dead_cid) {
          sim::Rng dead_rng = base_rng.fork("fuzz-adversary-dead");
          flash_cid = merkledag::import_bytes(
                          scratch, deterministic_bytes(2048, dead_rng))
                          .root;
        } else {
          flash_cid = merkledag::import_bytes(scratch, objects[0].data).root;
        }
        break;
      }
      case ScheduleParams::Attack::kPartition: {
        adversary::PartitionConfig partition;
        partition.groups = {{0}, {1, 2}};
        partition.start = sim::seconds(5);
        partition.heal_at = sim::seconds(5) + window / 2;
        attack_config.partition = partition;
        break;
      }
      case ScheduleParams::Attack::kChurnStorm:  // a FaultPlan process
      case ScheduleParams::Attack::kNone:
        break;
    }
    attack = std::make_unique<adversary::AttackPlan>(network, attack_config,
                                                     params.seed);
    for (const auto& node : nodes) attack->add_victim(node->self());
    if (attack_config.flash_crowd) {
      // The gateway node appends after every honest and attacker node and
      // draws no schedule randomness; its bootstrap drains in the still-
      // faultless window (nothing is armed yet).
      gateway::GatewayConfig gateway_config;
      gateway_config.node.identity_seed =
          params.seed ^ 0xF1A5C0DE9E3779B9ULL;
      if (fabric.indexer_count() > 0)
        gateway_config.node.routing = fabric.routing_config();
      flash_gateway =
          std::make_unique<gateway::Gateway>(network, gateway_config);
      flash_gateway->bootstrap(seeds_for(node_count), [](bool) {});
      stats.events_executed += network.run();

      attack->set_flash_request_handler([&](std::size_t slot) {
        flash_fired[slot] = 1;
        ++stats.flash_fired;
        flash_gateway->handle_get(
            flash_cid, [&, slot](gateway::GatewayResponse response) {
              ++flash_completed[slot];
              ++stats.flash_completions;
              if (response.source != gateway::ServedFrom::kFailed)
                flash_ok[slot] = 1;
              if (!params.flash_dead_cid || flash_repeat_fired[slot]) return;
              // The retry: same client, 5 s later — squarely inside the
              // negative TTL, so the shield (not a second doomed
              // pipeline) should answer it.
              flash_repeat_fired[slot] = 1;
              ++stats.flash_repeat_fired;
              network.schedule_after(sim::seconds(5), [&, slot] {
                flash_gateway->handle_get(
                    flash_cid, [&, slot](gateway::GatewayResponse repeat) {
                      ++flash_repeat_completed[slot];
                      ++stats.flash_repeat_completions;
                      if (repeat.source != gateway::ServedFrom::kFailed)
                        flash_repeat_ok[slot] = 1;
                    });
              });
            });
      });
    }
  }

  // Pubsub publishes land anywhere in the workload window, from any node:
  // non-subscribed publishers exercise the fanout path, subscribed ones
  // the mesh. All draws happen up front so the op table never mutates the
  // rng mid-run.
  struct PubsubPublishOp {
    std::size_t publisher = 0;
    std::size_t topic = 0;
    sim::Duration offset = 0;
    std::vector<std::uint8_t> data;
    bool attempted = false;           // false: publisher was offline
    bool publisher_subscribed = false;
    std::size_t peers_at_publish = 0; // router's topic peers when it fired
    pubsub::MessageId id;             // filled when the publish fires
  };
  std::vector<PubsubPublishOp> pubsub_ops(
      topic_count == 0 ? 0 : params.pubsub_publish_count);
  for (auto& op : pubsub_ops) {
    op.publisher = static_cast<std::size_t>(pubsub_rng.uniform_int(
        0, static_cast<std::int64_t>(node_count) - 1));
    op.topic = static_cast<std::size_t>(pubsub_rng.uniform_int(
        0, static_cast<std::int64_t>(topic_count) - 1));
    op.offset = sim::seconds(pubsub_rng.uniform(0.0, sim::to_seconds(window)));
    op.data = deterministic_bytes(
        static_cast<std::size_t>(pubsub_rng.uniform_int(16, 256)), pubsub_rng);
  }

  // The workload window opens only now: a flash-crowd schedule's gateway
  // bootstrap above drains the network, and every offset counts from
  // the clock it leaves behind. The draws were all made up front.
  const sim::Time workload_start = network.now();
  for (std::size_t oi = 0; oi < params.publish_count; ++oi) {
    network.schedule_at(workload_start + objects[oi].offset, [&, oi] {
      FuzzObject& obj = objects[oi];
      OpRecord& op = stats.ops[oi];
      op.start = network.now();
      if (!network.online(nodes[obj.publisher]->node())) return;  // crashed
      op.attempted = true;
      obj.cid = nodes[obj.publisher]->add(obj.data).root;
      obj.published_locally = true;
      nodes[obj.publisher]->provide(obj.cid, [&, oi](node::PublishTrace trace) {
        OpRecord& publish_op = stats.ops[oi];
        if (publish_op.completed) {
          std::ostringstream out;
          out << "publish obj=" << oi << " completed twice";
          violations.push_back(out.str());
          return;
        }
        publish_op.completed = true;
        publish_op.ok = trace.ok;
        publish_op.elapsed = network.now() - publish_op.start;

        // Retrievals chase the publish (never race it): schedule them
        // only once the provider records are out.
        for (const PlannedRetrieval& retrieval : planned[oi]) {
          network.schedule_after(retrieval.delay_after_publish, [&, oi,
                                                                   retrieval] {
            OpRecord& op = stats.ops[retrieval.op_index];
            op.start = network.now();
            const auto& node = nodes[retrieval.retriever];
            if (!network.online(node->node())) return;  // crashed right now
            op.attempted = true;
            node->retrieve(objects[oi].cid, [&, oi,
                                             retrieval](node::RetrievalTrace trace) {
              OpRecord& op = stats.ops[retrieval.op_index];
              if (op.completed) {
                std::ostringstream out;
                out << "retrieval obj=" << oi << " op=" << retrieval.op_index
                    << " completed twice";
                violations.push_back(out.str());
                return;
              }
              op.completed = true;
              op.ok = trace.ok;
              op.elapsed = network.now() - op.start;
              stats.bytes_fetched += trace.bytes;
              const bool via_indexer =
                  trace.routing_source == routing::Source::kIndexer;
              if (trace.ok && via_indexer) ++stats.indexer_routed;
              if (trace.ok) {
                const auto reassembled = merkledag::cat(
                    nodes[retrieval.retriever]->store(), objects[oi].cid);
                if (!reassembled || *reassembled != objects[oi].data) {
                  // (9) An indexer-routed fetch must be byte-identical to
                  // the DHT path: delegation changes provider discovery,
                  // never the fetched content.
                  std::ostringstream out;
                  out << (via_indexer ? "indexer-routed content mismatch"
                                      : "content mismatch")
                      << ": retrieval obj=" << oi << " node=" << op.node
                      << " reported ok but bytes differ";
                  violations.push_back(out.str());
                }
              }
            });
          });
        }
      });
    });
  }
  for (std::size_t pi = 0; pi < pubsub_ops.size(); ++pi) {
    network.schedule_at(workload_start + pubsub_ops[pi].offset, [&, pi] {
      PubsubPublishOp& op = pubsub_ops[pi];
      if (!network.online(nodes[op.publisher]->node())) return;  // crashed
      op.attempted = true;
      ++stats.pubsub_publishes;
      op.publisher_subscribed =
          nodes[op.publisher]->pubsub()->subscribed(topic_name(op.topic));
      op.peers_at_publish =
          nodes[op.publisher]->pubsub()->topic_peers(topic_name(op.topic)).size();
      op.id =
          nodes[op.publisher]->pubsub()->publish(topic_name(op.topic), op.data);
    });
  }

  // ---- Phase 2: run the workload under faults ----------------------------
  plan.arm();
  if (attack) attack->arm();  // after plan.arm(): the decorator wraps it
  const sim::Time horizon =
      params.long_horizon
          ? workload_start + sim::hours(26)
          : workload_start + window + sim::seconds(60);
  stats.events_executed += network.run_until(horizon);

  // ---- Phase 3: disarm background faults and drain -----------------------
  if (attack) attack->disarm();
  plan.disarm();
  stats.events_executed += network.run();
  stats.faults = plan.counters();

  // ---- Invariant checks ---------------------------------------------------
  const sim::Time end = network.now();

  // (2) Completion: attempted ops completed exactly once unless the
  // requester crashed after the op started. (Double completion is caught
  // inline above.)
  for (const auto& op : stats.ops) {
    if (!op.attempted || op.completed) continue;
    const auto& crashes = crash_times[node_index(op.node)];
    const bool crashed_after_start = std::any_of(
        crashes.begin(), crashes.end(),
        [&](sim::Time t) { return t >= op.start; });
    if (!crashed_after_start) {
      std::ostringstream out;
      out << kind_name(op.kind) << " obj=" << op.object << " node=" << op.node
          << " started at t=" << op.start
          << "us never completed and the node never crashed";
      violations.push_back(out.str());
    }
  }

  // (3) No leaked simulator events or pending exchanges.
  if (network.foreground_pending() != 0) {
    std::ostringstream out;
    out << network.foreground_pending()
        << " live foreground event(s) leaked after the drain";
    violations.push_back(out.str());
  }
  if (network.pending_request_count() != 0) {
    std::ostringstream out;
    out << network.pending_request_count()
        << " pending request/response exchange(s) leaked after the drain";
    violations.push_back(out.str());
  }

  // (4) Routing hygiene: no self entries, no duplicates.
  for (std::size_t i = 0; i < node_count; ++i) {
    const auto peers = nodes[i]->dht().routing_table().all_peers();
    std::set<multiformats::PeerId> seen;
    for (const auto& peer : peers) {
      if (peer.id == nodes[i]->self().id) {
        std::ostringstream out;
        out << "node " << i << " holds itself in its routing table";
        violations.push_back(out.str());
      }
      if (!seen.insert(peer.id).second) {
        std::ostringstream out;
        out << "node " << i << " holds a duplicate routing entry";
        violations.push_back(out.str());
      }
    }
  }

  // (5) Provider records expire on schedule (one sweep interval of slack,
  // plus the worst-case crash downtime during which no sweep can run).
  const sim::Duration expiry_slack =
      dht::kExpirySweepInterval + params.faults.max_downtime + sim::minutes(1);
  for (std::size_t i = 0; i < node_count; ++i) {
    const std::size_t stale =
        nodes[i]->dht().record_store().stale_provider_count(end, expiry_slack);
    if (stale != 0) {
      std::ostringstream out;
      out << "node " << i << " holds " << stale
          << " provider record(s) past expiry + slack at t=" << end << "us";
      violations.push_back(out.str());
    }
  }

  // (6) Conservation: received(a <- b) <= sent(b -> a), blocks and bytes.
  // The ledger graph spans the population plus the flash gateway's node
  // (it Bitswap-fetches from population providers on flash schedules).
  std::vector<node::IpfsNode*> bitswap_nodes;
  bitswap_nodes.reserve(node_count + 1);
  for (const auto& node : nodes) bitswap_nodes.push_back(node.get());
  if (flash_gateway) bitswap_nodes.push_back(&flash_gateway->node());
  const auto bitswap_peer = [&](sim::NodeId id) -> node::IpfsNode* {
    if (flash_gateway && id == flash_gateway->node().node())
      return &flash_gateway->node();
    const std::size_t index = node_index(id);
    return index < node_count ? nodes[index].get() : nullptr;
  };
  for (node::IpfsNode* a : bitswap_nodes) {
    for (const auto& [peer, ledger] : a->bitswap().ledgers()) {
      node::IpfsNode* peer_node = bitswap_peer(peer);
      if (peer_node == nullptr) continue;  // non-Bitswap peer (defensive)
      const auto& peer_ledgers = peer_node->bitswap().ledgers();
      const auto it = peer_ledgers.find(a->node());
      const std::uint64_t sent_blocks =
          it == peer_ledgers.end() ? 0 : it->second.blocks_sent;
      const std::uint64_t sent_bytes =
          it == peer_ledgers.end() ? 0 : it->second.bytes_sent;
      if (ledger.blocks_received > sent_blocks ||
          ledger.bytes_received > sent_bytes) {
        std::ostringstream out;
        out << "conservation violated: node " << a->node() << " received "
            << ledger.blocks_received << " blocks/" << ledger.bytes_received
            << " bytes from node " << peer << " which only sent "
            << sent_blocks << "/" << sent_bytes;
        violations.push_back(out.str());
      }
    }
  }

  // (7) Pubsub at-most-once is checked inline at delivery time (see
  // subscribe_node above).

  // (8) Pubsub eventual delivery, clean schedules only: no injected
  // faults and no crashes means nothing could partition a mesh, so every
  // subscriber must hold every published message exactly once. Faulty
  // schedules can legitimately end mid-repair; there only (7) binds.
  // Storm crashes are FaultPlan crashes, and partitions disturb meshes
  // the same way (a partitioned-away publish ages out of the gossip
  // window), so those schedules are exempt too.
  if (params.fault_scale == 0.0 && stats.faults.crashes == 0 &&
      params.attack != ScheduleParams::Attack::kPartition) {
    for (const auto& op : pubsub_ops) {
      if (!op.attempted) continue;
      // A fanout publisher that knows no topic peer drops the message by
      // design (go-libp2p's Publish reports NoPeersFound): nobody ever
      // announced the topic to it, so the router has nowhere to send.
      // Subscribed publishers are never exempt — the subscriber ring in
      // the candidate wiring guarantees they learn at least one peer.
      if (op.peers_at_publish == 0 && !op.publisher_subscribed) continue;
      for (const std::size_t i : topic_subscribers[op.topic]) {
        const auto& counts = pubsub_seen[i][op.topic];
        const auto it = counts.find(op.id);
        const int count = it == counts.end() ? 0 : it->second;
        if (count != 1) {
          std::ostringstream out;
          out << "pubsub delivery violated: subscriber " << i << " of "
              << topic_name(op.topic) << " delivered id{origin="
              << op.id.origin << " seqno=" << op.id.seqno << "} " << count
              << " time(s) on a clean schedule (mesh="
              << nodes[i]->pubsub()->mesh_peers(topic_name(op.topic)).size()
              << " peers="
              << nodes[i]->pubsub()->topic_peers(topic_name(op.topic)).size()
              << " publisher_known_peers="
              << nodes[op.publisher]
                     ->pubsub()
                     ->topic_peers(topic_name(op.topic))
                     .size()
              << ")";
          violations.push_back(out.str());
        }
      }
    }
  }

  // (10) Indexer crashes are non-fatal: when the harness-scheduled
  // indexer crashes were the only faults in the schedule, the race
  // router's DHT arm must have carried every fetch — a retrieval that
  // fails here is one a DHT-only configuration would have served.
  if (params.fault_scale == 0.0 && stats.faults.crashes == 0 &&
      params.attack != ScheduleParams::Attack::kPartition &&
      stats.indexer_crashes > 0) {
    for (const auto& op : stats.ops) {
      if (op.kind != OpRecord::Kind::kRetrieve || !op.attempted) continue;
      if (op.completed && op.ok) continue;
      std::ostringstream out;
      out << "indexer crash degraded retrieval: obj=" << op.object
          << " node=" << op.node << " (completed=" << op.completed
          << " ok=" << op.ok << ") on a schedule whose only faults were "
          << stats.indexer_crashes << " indexer crash(es)";
      violations.push_back(out.str());
    }
  }

  // (11) Eclipse resilience: the eclipsed CID (the schedule's first
  // object) must still be retrievable via the indexer race once the
  // indexer has ingested the publisher's advertisement. Eclipse
  // schedules force fault scale 0, healthy indexers and full defenses
  // (apply_attack_constraints), so nothing but the eclipse itself could
  // degrade these retrievals. Binds only when the defenses are actually
  // armed — tests pin defenses-off eclipse schedules to prove the attack
  // itself works, and those are expected to lose the object.
  if (params.attack == ScheduleParams::Attack::kEclipse &&
      params.indexer_count > 0 && params.provider_quorum > 1 &&
      params.fault_scale == 0.0 && !params.indexer_crashes) {
    const sim::Duration settle = params.indexer_ingest_lag + sim::seconds(5);
    for (const PlannedRetrieval& retrieval : planned[0]) {
      const OpRecord& op = stats.ops[retrieval.op_index];
      if (!op.attempted) continue;
      if (retrieval.delay_after_publish < settle) continue;
      if (op.completed && op.ok) continue;
      std::ostringstream out;
      out << "eclipse defeated retrieval: the eclipsed CID (obj=0) was not"
          << " retrievable via the indexer race (node=" << op.node
          << " completed=" << op.completed << " ok=" << op.ok << " delay_s="
          << sim::to_seconds(retrieval.delay_after_publish) << ")";
      violations.push_back(out.str());
    }
  }

  // (12) Flash-crowd accounting: every fired flash request completes
  // exactly once, and a crowd chasing a never-published CID gets a typed
  // failure. (Invariant 6 covers the block accounting underneath.)
  if (params.attack == ScheduleParams::Attack::kFlashCrowd) {
    for (std::size_t slot = 0; slot < params.flash_requests; ++slot) {
      if (!flash_fired[slot]) continue;
      if (flash_completed[slot] != 1) {
        std::ostringstream out;
        out << "flash-crowd request slot=" << slot << " completed "
            << flash_completed[slot] << " time(s), expected exactly once";
        violations.push_back(out.str());
      }
      if (params.flash_dead_cid && flash_ok[slot]) {
        std::ostringstream out;
        out << "flash-crowd request slot=" << slot
            << " reported ok for a CID that was never published";
        violations.push_back(out.str());
      }
      // The dead-CID retry wave obeys the same exactly-once, never-ok
      // contract as the first wave.
      if (!flash_repeat_fired[slot]) continue;
      if (flash_repeat_completed[slot] != 1) {
        std::ostringstream out;
        out << "flash-crowd retry slot=" << slot << " completed "
            << flash_repeat_completed[slot] << " time(s), expected exactly once";
        violations.push_back(out.str());
      }
      if (flash_repeat_ok[slot]) {
        std::ostringstream out;
        out << "flash-crowd retry slot=" << slot
            << " reported ok for a CID that was never published";
        violations.push_back(out.str());
      }
    }
    if (flash_gateway) {
      stats.flash_negative_hits = flash_gateway->negative_hits();
      // At least the leader's own retry lands 5 s after the failure that
      // stored the negative entry (TTL 30 s), so a fired retry wave with
      // zero negative hits means every retry re-paid the doomed pipeline
      // — the dead-CID stampede the shield exists to absorb.
      if (stats.flash_repeat_fired > 0 && stats.flash_negative_hits == 0) {
        std::ostringstream out;
        out << "dead-CID stampede not absorbed: " << stats.flash_repeat_fired
            << " retry request(s) fired inside the negative TTL but the "
            << "gateway's negative-result cache served none of them";
        violations.push_back(out.str());
      }
    }
  }

  // (13) Sybil containment: with the diversity cap armed, no bucket on
  // any node may hold more adversarial entries than the cap — every
  // forged identity advertises an address in the attacker's one /16.
  if (attack && params.diversity_cap > 0) {
    for (std::size_t i = 0; i < node_count; ++i) {
      const dht::Key self_key = dht::Key::for_peer(nodes[i]->self().id);
      std::map<int, std::size_t> adversarial_per_bucket;
      for (const auto& peer : nodes[i]->dht().routing_table().all_peers())
        if (attack->is_adversarial_id(peer.id))
          ++adversarial_per_bucket[self_key.common_prefix_len(
              dht::Key::for_peer(peer.id))];
      for (const auto& [cpl, count] : adversarial_per_bucket) {
        if (count <= params.diversity_cap) continue;
        std::ostringstream out;
        out << "sybil containment violated: node " << i << " bucket cpl="
            << cpl << " holds " << count << " adversarial entries (cap="
            << params.diversity_cap << ")";
        violations.push_back(out.str());
      }
    }
  }

  // (14) Acked-put durability: add() flushed the publisher's store
  // before the publish op was recorded as locally published, so the
  // object's blocks are acked — they must survive every crash/restart
  // cycle (and, on persist schedules, every torn unsynced tail).
  for (std::size_t oi = 0; oi < params.publish_count; ++oi) {
    const FuzzObject& object = objects[oi];
    if (!object.published_locally) continue;
    const auto bytes =
        merkledag::cat(nodes[object.publisher]->store(), object.cid);
    if (!bytes || *bytes != object.data) {
      std::ostringstream out;
      out << "acked put lost: publisher " << object.publisher << " of obj="
          << oi << " (" << object.data.size() << " bytes, "
          << crash_times[object.publisher].size()
          << " crash(es)) cannot reassemble its own published object "
          << (bytes ? "(bytes differ)" : "(blocks missing)");
      violations.push_back(out.str());
    }
  }

  // Engine-level dedup totals feed the determinism fingerprint.
  for (std::size_t i = 0; i < node_count; ++i)
    stats.pubsub_duplicates += nodes[i]->pubsub()->duplicates_suppressed();
  if (attack) stats.attack_events = attack->counters().total_attack_events();
  for (std::size_t i = 0; i < node_count; ++i)
    stats.sybil_rejections +=
        nodes[i]->dht().routing_table().diversity_rejections();

  if (attack) attack->detach();  // before plan.detach(): reverse arm order
  plan.detach();

  report.trace_dropped = network.metrics().trace_dropped();

  // Any violation dumps the schedule's flight recording: every counter,
  // histogram, and span/instant event the run produced, keyed by the
  // replay seed. Clean runs skip the serialization entirely.
  if (!violations.empty() || params.capture_trace) {
    std::ostringstream dump;
    stats::export_registry_jsonl(network.metrics(), dump);
    report.trace_jsonl = dump.str();
  }
  if (!violations.empty()) {
    std::ostringstream path;
    path << "simfuzz_trace_" << params.seed << ".jsonl";
    std::ofstream file(path.str(), std::ios::trunc);
    if (file) {
      file << report.trace_jsonl;
      report.trace_dump_path = path.str();
    }
  }
  return report;
}

}  // namespace ipfs::simfuzz
