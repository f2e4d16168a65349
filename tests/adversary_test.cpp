// Adversarial scenario pack tests (docs/ADVERSARY.md): Sybil k-bucket
// floods against the diversity cap, eclipse occupation of a target key's
// XOR neighborhood with and without defenses, flash-crowd coalescing at
// the gateway, churn storms (a FaultPlan process since FaultPlan is the
// one crash controller), partitions with heal, and the determinism
// and identity-domain guarantees the simfuzz invariants rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "adversary/adversary.h"
#include "blockstore/blockstore.h"
#include "gateway/gateway.h"
#include "merkledag/merkledag.h"
#include "node/ipfs_node.h"
#include "scenario/scenario.h"
#include "sim/fuzz_harness.h"
#include "testutil.h"
#include "world/world.h"

namespace ipfs::adversary {
namespace {

using testutil::TestSwarm;

dht::Key test_key(std::uint8_t tag) {
  return dht::Key::hash_of(std::vector<std::uint8_t>{tag, 0xa7});
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

// Adversarial entries in `table` grouped by bucket (cpl vs `self_key`).
std::map<int, std::size_t> adversarial_occupancy(const AttackPlan& plan,
                                                 const dht::Key& self_key,
                                                 dht::RoutingTable& table) {
  std::map<int, std::size_t> per_bucket;
  for (const auto& peer : table.all_peers())
    if (plan.is_adversarial_id(peer.id))
      ++per_bucket[self_key.common_prefix_len(dht::Key::for_peer(peer.id))];
  return per_bucket;
}

// --------------------------------------------------------------------------
// Forged identities
// --------------------------------------------------------------------------

TEST(ForgedIdentityTest, NeverAliasesSyntheticIdentities) {
  // Attacker identities are domain-separated from both honest identity
  // generators; an alias would let a forged peer impersonate an honest
  // one in routing tables and invariant checks.
  std::set<multiformats::PeerId> forged;
  for (std::uint64_t n = 0; n < 64; ++n) {
    const auto id = AttackPlan::forged_peer_id(n);
    EXPECT_TRUE(forged.insert(id).second) << "forged id " << n << " repeats";
    for (std::uint64_t m = 0; m < 64; ++m) {
      EXPECT_NE(id, scenario::synthetic_peer_id(m));
      EXPECT_NE(id, world::synthetic_peer_id(m));
    }
  }
}

TEST(ForgedIdentityTest, AttackerAddressesShareOneSlash16) {
  // The whole fleet lives in 66.6.0.0/16 — the single operator address
  // block the RoutingTable diversity cap counts.
  for (std::uint32_t n = 0; n < 600; n += 37) {
    const dht::PeerRef ref{AttackPlan::forged_peer_id(n), 0,
                           {AttackPlan::attacker_address(n)}};
    const auto cls = dht::RoutingTable::diversity_class(ref);
    ASSERT_TRUE(cls.has_value());
    EXPECT_EQ(*cls, (66 << 8) | 6);
  }
}

// --------------------------------------------------------------------------
// Sybil flood vs the diversity cap
// --------------------------------------------------------------------------

scenario::Scenario sybil_swarm(std::uint64_t seed, SybilConfig sybil) {
  return scenario::ScenarioBuilder()
      .peers(24)
      .seed(seed)
      .single_region(15.0)
      .dht_servers(true)
      .sybils(sybil)
      .build();
}

TEST(SybilTest, MinedIdsLandInTheTargetBucket) {
  SybilConfig sybil;
  sybil.per_victim = 5;
  sybil.target_cpl = 6;
  scenario::Scenario s = sybil_swarm(11, sybil);
  ASSERT_NE(s.attack(), nullptr);
  s.attack()->arm();  // mining happens at arm time

  ASSERT_EQ(s.attack()->victim_count(), s.size());
  for (std::size_t v = 0; v < s.size(); ++v) {
    const dht::Key victim_key = dht::Key::for_peer(s.ref(v).id);
    const auto& refs = s.attack()->sybil_refs(v);
    ASSERT_EQ(refs.size(), sybil.per_victim);
    for (const auto& ref : refs) {
      EXPECT_EQ(victim_key.common_prefix_len(dht::Key::for_peer(ref.id)),
                sybil.target_cpl);
      EXPECT_TRUE(s.attack()->is_adversarial_id(ref.id));
    }
  }
  s.attack()->disarm();
  s.attack()->detach();
}

TEST(SybilTest, FloodFillsBucketsWithoutTheCap) {
  SybilConfig sybil;
  sybil.per_victim = 8;
  sybil.target_cpl = 6;
  sybil.rounds = 2;
  scenario::Scenario s = sybil_swarm(12, sybil);
  s.attack()->arm();
  s.simulator().run_until(s.simulator().now() + sim::minutes(2));
  s.attack()->disarm();
  s.simulator().run();

  // Undefended: the flood lands. At least one victim holds more
  // adversarial entries in the target bucket than any sane cap allows.
  std::size_t worst = 0;
  for (std::size_t v = 0; v < s.size(); ++v) {
    const auto per_bucket = adversarial_occupancy(
        *s.attack(), dht::Key::for_peer(s.ref(v).id), s.dht(v).routing_table());
    for (const auto& [cpl, count] : per_bucket)
      worst = std::max(worst, count);
  }
  EXPECT_GE(worst, 4u);
  EXPECT_GT(s.attack()->counters().flood_requests_sent, 0u);
  s.attack()->detach();
}

TEST(SybilTest, DiversityCapBoundsBucketOccupancy) {
  constexpr std::size_t kCap = 2;
  SybilConfig sybil;
  sybil.per_victim = 8;
  sybil.target_cpl = 6;
  sybil.rounds = 2;
  scenario::Scenario s = sybil_swarm(12, sybil);  // same seed as undefended
  for (std::size_t v = 0; v < s.size(); ++v)
    s.dht(v).set_bucket_diversity_cap(kCap);
  s.attack()->arm();
  s.simulator().run_until(s.simulator().now() + sim::minutes(2));
  s.attack()->disarm();
  s.simulator().run();

  std::uint64_t rejections = 0;
  for (std::size_t v = 0; v < s.size(); ++v) {
    const auto per_bucket = adversarial_occupancy(
        *s.attack(), dht::Key::for_peer(s.ref(v).id), s.dht(v).routing_table());
    for (const auto& [cpl, count] : per_bucket)
      EXPECT_LE(count, kCap) << "victim " << v << " bucket cpl=" << cpl;
    rejections += s.dht(v).routing_table().diversity_rejections();
  }
  // The cap did real work: the same flood that filled buckets undefended
  // was turned away here.
  EXPECT_GT(rejections, 0u);
  s.attack()->detach();
}

// --------------------------------------------------------------------------
// Eclipse
// --------------------------------------------------------------------------

TEST(EclipseTest, AttackersOccupyTheTargetNeighborhood) {
  const dht::Key target = test_key(1);
  EclipseConfig eclipse;
  eclipse.attackers = 12;
  eclipse.min_cpl = 10;
  scenario::Scenario s = scenario::ScenarioBuilder()
                             .peers(30)
                             .seed(21)
                             .single_region(15.0)
                             .dht_servers(true)
                             .eclipse(target, eclipse)
                             .build();
  ASSERT_NE(s.attack(), nullptr);
  const auto& refs = s.attack()->eclipse_refs();
  ASSERT_EQ(refs.size(), eclipse.attackers);
  // Every mined attacker out-distances every honest peer for the target.
  for (const auto& ref : refs) {
    EXPECT_GE(target.common_prefix_len(dht::Key::for_peer(ref.id)),
              eclipse.min_cpl);
    for (std::size_t i = 0; i < s.size(); ++i)
      EXPECT_TRUE(dht::Key::for_peer(ref.id).closer_to(
          target, dht::Key::for_peer(s.ref(i).id)));
  }
  EXPECT_FALSE(s.network().config(s.attack()->ghost_provider().node).dialable);
}

TEST(EclipseTest, SwallowsProviderRecordsOnceArmed) {
  const dht::Key target = test_key(2);
  scenario::Scenario s = scenario::ScenarioBuilder()
                             .peers(30)
                             .seed(22)
                             .single_region(15.0)
                             .dht_servers(true)
                             .eclipse(target)
                             .build();
  s.attack()->arm();
  // Let the attacker announce plant the eclipse refs in victim tables.
  s.simulator().run_until(s.simulator().now() + sim::seconds(5));

  bool provide_ok = false;
  s.dht(0).provide(target, [&](dht::DhtNode::ProvideResult r) {
    provide_ok = r.ok;
  });
  s.simulator().run();
  EXPECT_TRUE(provide_ok);  // the publisher never learns it was eclipsed

  // The walk converged onto the attackers; every record was swallowed,
  // so no honest node holds one.
  std::size_t honest_records = 0;
  for (std::size_t i = 0; i < s.size(); ++i)
    honest_records +=
        s.dht(i).record_store().providers(target, s.simulator().now()).size();
  EXPECT_EQ(honest_records, 0u);
  EXPECT_GT(s.attack()->counters().provider_records_swallowed, 0u);

  s.attack()->disarm();
  s.attack()->detach();
}

TEST(EclipseTest, DefeatsDhtOnlyRetrievalOfTheTargetCid) {
  // Node-level offense with the defenses off (quorum 1, no caps, DHT
  // routing only): the armed eclipse swallows the publisher's provider
  // records and feeds the retriever a poisoned record pointing at the
  // undialable ghost, so the retrieval fails.
  const auto data = random_bytes(64 * 1024, 9);
  blockstore::BlockStore scratch;
  const multiformats::Cid cid = merkledag::import_bytes(scratch, data).root;

  scenario::Scenario s = scenario::ScenarioBuilder()
                             .peers(40)
                             .seed(23)
                             .single_region(20.0)
                             .dht_servers(true)
                             .eclipse(dht::Key::for_cid(cid))
                             .build();
  node::IpfsNodeConfig publisher_config;
  publisher_config.identity_seed = 77;
  publisher_config.provide_after_fetch = false;
  node::IpfsNode publisher(s.network(), publisher_config);
  node::IpfsNodeConfig retriever_config;
  retriever_config.identity_seed = 99;
  retriever_config.provide_after_fetch = false;
  node::IpfsNode retriever(s.network(), retriever_config);

  std::vector<dht::PeerRef> seeds;
  for (int i = 0; i < 6; ++i) seeds.push_back(s.ref(i));
  bool publisher_up = false;
  bool retriever_up = false;
  publisher.bootstrap(seeds, [&](bool ok) { publisher_up = ok; });
  retriever.bootstrap(seeds, [&](bool ok) { retriever_up = ok; });
  s.simulator().run();
  ASSERT_TRUE(publisher_up);
  ASSERT_TRUE(retriever_up);

  s.attack()->add_victim(publisher.self());
  s.attack()->add_victim(retriever.self());
  s.attack()->arm();
  // Let the announce plant the attackers in every victim's table.
  s.simulator().run_until(s.simulator().now() + sim::seconds(5));

  node::PublishTrace publish_trace;
  publisher.publish(data, [&](node::PublishTrace t) { publish_trace = t; });
  s.simulator().run();
  ASSERT_TRUE(publish_trace.ok);  // the publisher never learns
  ASSERT_EQ(publish_trace.cid, cid);
  EXPECT_GT(s.attack()->counters().provider_records_swallowed, 0u);

  // Drop the retriever's connections so the opportunistic Bitswap phase
  // cannot shortcut provider discovery (the paper's measurement reset).
  retriever.reset_for_next_measurement();
  std::optional<node::RetrievalTrace> trace;
  retriever.retrieve(cid, [&](node::RetrievalTrace t) { trace = t; });
  s.simulator().run();
  ASSERT_TRUE(trace.has_value());
  EXPECT_FALSE(trace->ok);
  EXPECT_GT(s.attack()->counters().poisoned_records_served, 0u);

  s.attack()->disarm();
  s.attack()->detach();
}

TEST(EclipseTest, QuorumCapsAndIndexerRaceRestoreRetrieval) {
  // The same eclipse inside the fuzz harness with the defense stack on
  // (indexer race + provider quorum + diversity caps): every retrieval
  // of the eclipsed CID is served — invariant 11 binds in-harness too.
  simfuzz::ScheduleParams params;
  params.seed = 4242;
  params.node_count = 14;
  params.nat_fraction = 0.0;
  params.flaky_fraction = 0.0;
  params.publish_count = 2;
  params.retrievals_per_object = 3;
  params.fault_scale = 0.0;
  params.faults = simfuzz::faults_for_scale(0.0, false);
  params.attack = simfuzz::ScheduleParams::Attack::kEclipse;
  params.indexer_count = 1;
  params.indexer_ingest_lag = sim::seconds(1);
  params.provider_quorum = 3;
  params.diversity_cap = 2;

  const auto report = simfuzz::run_schedule(params);
  ASSERT_TRUE(report.ok()) << report.failure_summary();
  std::size_t attempted = 0;
  std::size_t ok = 0;
  for (std::size_t r = 0; r < params.retrievals_per_object; ++r) {
    const auto& op = report.stats.ops[params.publish_count + r];
    if (!op.attempted) continue;
    ++attempted;
    if (op.completed && op.ok) ++ok;
  }
  ASSERT_GT(attempted, 0u);
  EXPECT_EQ(ok, attempted) << report.stats.fingerprint();
  EXPECT_GT(report.stats.attack_events, 0u);
}

// --------------------------------------------------------------------------
// Flash crowd: gateway coalescing
// --------------------------------------------------------------------------

TEST(FlashCrowdTest, GatewayCoalescesConcurrentMissesForOneCid) {
  TestSwarm swarm(60, 33);
  gateway::GatewayConfig config;
  config.node.identity_seed = 99;
  config.node.provide_after_fetch = false;
  gateway::Gateway gateway(swarm.network(), config);

  node::IpfsNodeConfig publisher_config;
  publisher_config.identity_seed = 77;
  node::IpfsNode publisher(swarm.network(), publisher_config);

  std::vector<dht::PeerRef> seeds;
  for (int i = 0; i < 6; ++i) seeds.push_back(swarm.ref(i));
  gateway.bootstrap(seeds, [](bool) {});
  publisher.bootstrap(seeds, [](bool) {});
  swarm.simulator().run();

  const auto data = random_bytes(128 * 1024, 5);
  node::PublishTrace publish_trace;
  publisher.publish(data, [&](node::PublishTrace t) { publish_trace = t; });
  swarm.simulator().run();
  ASSERT_TRUE(publish_trace.ok);

  // A crowd of requests for the same CID lands before the first can
  // resolve: one upstream retrieval, every waiter answered.
  constexpr std::size_t kCrowd = 8;
  std::vector<gateway::GatewayResponse> responses;
  for (std::size_t i = 0; i < kCrowd; ++i)
    gateway.handle_get(publish_trace.cid, [&](gateway::GatewayResponse r) {
      responses.push_back(r);
    });
  swarm.simulator().run();

  ASSERT_EQ(responses.size(), kCrowd);
  for (const auto& response : responses) {
    EXPECT_EQ(response.source, gateway::ServedFrom::kP2p);
    EXPECT_EQ(response.bytes, data.size());
    EXPECT_GT(response.latency, 0);
  }
  EXPECT_EQ(gateway.coalesced_requests(), kCrowd - 1);
  // Every request is accounted, but the P2P pipeline ran once: exactly
  // one provider connection was torn down afterwards.
  EXPECT_EQ(gateway.stats(gateway::ServedFrom::kP2p).requests, kCrowd);
  EXPECT_EQ(gateway.total_requests(), kCrowd);
}

TEST(FlashCrowdTest, PlanFiresEverySlotInsideTheWindow) {
  FlashCrowdConfig flash;
  flash.requests = 12;
  flash.start = sim::seconds(2);
  flash.window = sim::seconds(10);
  scenario::Scenario s = scenario::ScenarioBuilder()
                             .peers(4)
                             .seed(44)
                             .single_region(10.0)
                             .dht_servers(true)
                             .flash_crowd(flash)
                             .build();
  std::vector<sim::Time> fired;
  const sim::Time base = s.simulator().now();
  s.attack()->set_flash_request_handler(
      [&](std::size_t) { fired.push_back(s.simulator().now()); });
  s.attack()->arm();
  s.simulator().run();
  s.attack()->disarm();
  s.attack()->detach();

  ASSERT_EQ(fired.size(), flash.requests);
  EXPECT_EQ(s.attack()->counters().flash_requests, flash.requests);
  for (const sim::Time t : fired) {
    EXPECT_GE(t, base + flash.start);
    EXPECT_LE(t, base + flash.start + flash.window);
  }
}

// --------------------------------------------------------------------------
// Churn storm: a FaultPlan process over the nodes under manage_crashes()
// --------------------------------------------------------------------------

TEST(ChurnStormTest, CrashesAndRevivesManagedNodes) {
  sim::FaultConfig faults;
  faults.churn_storm = sim::ChurnStormConfig{
      .fraction = 1.0,  // every managed node crashes
      .start = sim::seconds(1),
      .window = sim::seconds(10),
      .min_downtime = sim::seconds(5),
      .max_downtime = sim::seconds(15)};
  scenario::Scenario s = scenario::ScenarioBuilder()
                             .peers(10)
                             .seed(55)
                             .single_region(10.0)
                             .dht_servers(true)
                             .faults(faults)
                             .build();
  std::size_t crashes = 0;
  std::size_t restarts = 0;
  s.faults()->add_crash_listener([&](sim::NodeId, bool online) {
    online ? ++restarts : ++crashes;
  });
  for (std::size_t i = 4; i < s.size(); ++i)
    s.faults()->manage_crashes(s.node(i));
  s.faults()->arm();
  s.simulator().run_until(s.simulator().now() + sim::minutes(1));
  s.faults()->disarm();
  s.simulator().run();
  s.faults()->detach();

  EXPECT_EQ(crashes, s.size() - 4);
  EXPECT_EQ(restarts, crashes);  // every crash was revived
  EXPECT_EQ(s.faults()->counters().crashes, crashes);
  for (std::size_t i = 0; i < s.size(); ++i)
    EXPECT_TRUE(s.network().online(s.node(i)));
}

TEST(ChurnStormTest, DisarmRevivesNodesStillDown) {
  sim::FaultConfig faults;
  faults.churn_storm = sim::ChurnStormConfig{
      .fraction = 1.0,
      .start = sim::seconds(1),
      .window = sim::seconds(5),
      .min_downtime = sim::minutes(10),  // far past the disarm below
      .max_downtime = sim::minutes(20)};
  scenario::Scenario s = scenario::ScenarioBuilder()
                             .peers(8)
                             .seed(56)
                             .single_region(10.0)
                             .dht_servers(true)
                             .faults(faults)
                             .build();
  for (std::size_t i = 4; i < s.size(); ++i)
    s.faults()->manage_crashes(s.node(i));
  s.faults()->arm();
  s.simulator().run_until(s.simulator().now() + sim::seconds(20));
  // Mid-storm: the managed nodes are down.
  std::size_t down = 0;
  for (std::size_t i = 4; i < s.size(); ++i)
    if (!s.network().online(s.node(i))) ++down;
  EXPECT_GT(down, 0u);

  s.faults()->disarm();  // cancels downtimes, revives everyone
  s.simulator().run();
  for (std::size_t i = 0; i < s.size(); ++i)
    EXPECT_TRUE(s.network().online(s.node(i)));
  s.faults()->detach();
}

// --------------------------------------------------------------------------
// Partition + heal
// --------------------------------------------------------------------------

class CountingInjector : public sim::FaultInjector {
 public:
  bool drop_message(sim::NodeId, sim::NodeId) override {
    ++drop_queries;
    return false;
  }
  bool duplicate_message(sim::NodeId, sim::NodeId) override { return false; }
  sim::Duration reorder_delay(sim::NodeId, sim::NodeId) override { return 0; }
  bool fail_dial(sim::NodeId, sim::NodeId) override {
    ++dial_queries;
    return false;
  }
  double latency_factor(sim::NodeId, sim::NodeId) override { return 1.0; }
  std::size_t drop_queries = 0;
  std::size_t dial_queries = 0;
};

TEST(PartitionTest, HealRestoresCrossGroupReachability) {
  // Three-region fabric; nodes are added by hand so regions differ.
  scenario::Scenario fabric =
      scenario::ScenarioBuilder()
          .seed(66)
          .regions({{10.0, 40.0, 80.0},
                    {40.0, 10.0, 60.0},
                    {80.0, 60.0, 10.0}})
          .build();
  std::vector<sim::NodeId> nodes;
  for (int i = 0; i < 6; ++i)
    nodes.push_back(
        fabric.network().add_node(sim::NodeConfig{}.with_region(i % 3)));

  // node 0 (region 0) vs node 1 (region 1): across the partition below;
  // node 1 vs node 2 (region 2): same side.
  AttackConfig config;
  PartitionConfig partition;
  partition.groups = {{0}, {1, 2}};
  partition.start = 0;
  partition.heal_at = sim::seconds(30);
  config.partition = partition;
  AttackPlan plan(fabric.network(), config, 66);

  // Bounded drains: run() would also fire the pending heal timer, so
  // each probe advances just past the transport's 5 s dial timeout.
  const auto probe = [&](std::size_t from, std::size_t to) {
    std::optional<bool> ok;
    fabric.network().connect(nodes[from], nodes[to],
                             [&](bool connected, sim::Duration) {
                               ok = connected;
                             });
    fabric.simulator().run_until(fabric.simulator().now() + sim::seconds(8));
    return ok;
  };

  plan.arm();
  EXPECT_TRUE(plan.partition_active());
  const auto cross = probe(0, 1);
  ASSERT_TRUE(cross.has_value());
  EXPECT_FALSE(*cross);  // dial blocked across the partition
  const auto same_side = probe(1, 2);
  ASSERT_TRUE(same_side.has_value());
  EXPECT_TRUE(*same_side);  // groups stay internally connected
  EXPECT_GT(plan.counters().partition_dials_blocked, 0u);

  // Heal (at t = 30 s; the probes consumed 16 s), then the same
  // cross-group dial succeeds.
  fabric.simulator().run_until(fabric.simulator().now() + sim::minutes(1));
  EXPECT_FALSE(plan.partition_active());
  const auto healed = probe(0, 1);
  ASSERT_TRUE(healed.has_value());
  EXPECT_TRUE(*healed);

  plan.disarm();
  plan.detach();
}

TEST(PartitionTest, DecoratorDelegatesToTheInnerInjector) {
  scenario::Scenario fabric = scenario::ScenarioBuilder()
                                  .seed(67)
                                  .single_region(10.0)
                                  .build();
  const sim::NodeId a = fabric.network().add_node(sim::NodeConfig{});
  const sim::NodeId b = fabric.network().add_node(sim::NodeConfig{});

  CountingInjector inner;
  fabric.network().set_fault_injector(&inner);

  AttackConfig config;
  PartitionConfig partition;
  partition.groups = {{1}, {2}};  // both nodes are region 0: unaffected
  partition.start = 0;
  partition.heal_at = sim::seconds(30);
  config.partition = partition;
  AttackPlan plan(fabric.network(), config, 67);
  plan.arm();

  // Unpartitioned traffic passes through the decorator to the inner
  // injector (a FaultPlan in real scenarios).
  bool connected = false;
  fabric.network().connect(a, b,
                           [&](bool ok, sim::Duration) { connected = ok; });
  fabric.simulator().run_until(fabric.simulator().now() + sim::seconds(5));
  ASSERT_TRUE(connected);
  EXPECT_GT(inner.dial_queries, 0u);
  fabric.network().send(a, b, std::make_shared<const sim::Message>(), 64);
  fabric.simulator().run_until(fabric.simulator().now() + sim::seconds(5));
  EXPECT_GT(inner.drop_queries, 0u);
  EXPECT_EQ(plan.counters().partition_dials_blocked, 0u);

  plan.disarm();
  plan.detach();
  // Detach restores the exact injector that was installed before arm().
  EXPECT_EQ(fabric.network().fault_injector(), &inner);
  fabric.network().set_fault_injector(nullptr);
}

// --------------------------------------------------------------------------
// Determinism
// --------------------------------------------------------------------------

TEST(AttackPlanTest, SameSeedMintsIdenticalIdentitiesAndCounters) {
  const auto build = [](std::uint64_t seed) {
    SybilConfig sybil;
    sybil.per_victim = 4;
    sybil.target_cpl = 5;
    sybil.rounds = 1;
    return scenario::ScenarioBuilder()
        .peers(12)
        .seed(seed)
        .single_region(10.0)
        .dht_servers(true)
        .sybils(sybil)
        .eclipse(test_key(9))
        .build();
  };
  scenario::Scenario first = build(70);
  scenario::Scenario second = build(70);
  const auto run = [](scenario::Scenario& s) {
    s.attack()->arm();
    s.simulator().run_until(s.simulator().now() + sim::minutes(1));
    s.attack()->disarm();
    s.simulator().run();
    s.attack()->detach();
  };
  run(first);
  run(second);

  ASSERT_EQ(first.attack()->eclipse_refs().size(),
            second.attack()->eclipse_refs().size());
  for (std::size_t i = 0; i < first.attack()->eclipse_refs().size(); ++i)
    EXPECT_EQ(first.attack()->eclipse_refs()[i].id,
              second.attack()->eclipse_refs()[i].id);
  for (std::size_t v = 0; v < first.attack()->victim_count(); ++v) {
    const auto& lhs = first.attack()->sybil_refs(v);
    const auto& rhs = second.attack()->sybil_refs(v);
    ASSERT_EQ(lhs.size(), rhs.size());
    for (std::size_t i = 0; i < lhs.size(); ++i)
      EXPECT_EQ(lhs[i].id, rhs[i].id);
  }
  EXPECT_EQ(first.attack()->counters().flood_requests_sent,
            second.attack()->counters().flood_requests_sent);
  EXPECT_EQ(first.attack()->counters().sybil_ids_minted,
            second.attack()->counters().sybil_ids_minted);
}

}  // namespace
}  // namespace ipfs::adversary
