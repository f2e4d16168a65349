// Seeded simulation-fuzz harness tests: N randomized fault/workload
// schedules of the full publish -> provide -> resolve -> fetch pipeline,
// every global invariant checked after each run.
//
// Replay a failing schedule:
//   IPFS_FUZZ_SEED=<seed> IPFS_FUZZ_SCHEDULES=1 ./tests/simfuzz_test
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <string_view>

#include "crypto/sha256.h"
#include "sim/fuzz_harness.h"

namespace ipfs::simfuzz {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

TEST(SimFuzz, InvariantsHoldAcrossSeededSchedules) {
  const std::uint64_t base_seed = env_u64("IPFS_FUZZ_SEED", 1000);
  const std::uint64_t schedules = env_u64("IPFS_FUZZ_SCHEDULES", 200);

  std::uint64_t faults_injected = 0;
  std::size_t retrievals_ok = 0;
  std::size_t retrievals_attempted = 0;
  for (std::uint64_t i = 0; i < schedules; ++i) {
    const ScheduleParams params = make_schedule(base_seed + i);
    const ScheduleReport report = run_schedule(params);
    ASSERT_TRUE(report.ok()) << report.failure_summary();
    faults_injected += report.stats.faults.total_injected();
    retrievals_ok += report.stats.retrievals_ok();
    retrievals_attempted += report.stats.retrievals_attempted();
  }

  // The sweep must actually exercise the fault paths and still move data.
  if (schedules >= 10) {
    EXPECT_GT(faults_injected, 0u);
    EXPECT_GT(retrievals_ok, 0u);
    EXPECT_GT(retrievals_attempted, retrievals_ok / 2)
        << "schedules barely attempted any retrievals";
  }
}

TEST(SimFuzz, SameSeedProducesByteIdenticalStats) {
  const std::uint64_t seed = env_u64("IPFS_FUZZ_SEED", 424242);
  const ScheduleParams params = make_schedule(seed);
  const ScheduleReport first = run_schedule(params);
  const ScheduleReport second = run_schedule(params);
  EXPECT_EQ(first.stats.fingerprint(), second.stats.fingerprint());
  EXPECT_EQ(first.violations, second.violations);
}

// Two SHA-256 digests over the pinned schedules below. The event digest
// covers each schedule's fingerprint and its span and instant lines; the
// instrument digest covers its counter and histogram lines, so a change
// to how instruments are exported re-pins only that half. Both were
// taken when the single digest was split, at the commit before the
// split, so the split itself moved nothing.
//
// The single digest they replace was first taken at the commit before
// the single event core replaced the timer wheel, the heap backend and
// the sharded engine, so it proved that rewrite moved no seeded output.
// It was re-pinned once, when run_schedule stopped opening the workload
// window before a flash-crowd schedule's gateway bootstrap drained the
// network: that drain used to run the whole publish and retrieve
// workload before the fault plan armed, and the pubsub publishes then
// landed in the past. Only the four flash-crowd schedules (909095,
// 909097, 909099 and attack family 3, seed 3003) changed; the other 26
// hashed as before.
//
// The instrument digest was re-pinned once, when the persistent store
// lost its write-behind queue. The 19 schedules that draw persistent
// stores (909091-909097, 909099, 909101, 909103, 909104, 909106,
// 909108-909110, 909112-909114 and attack family 4, seed 3004) moved:
// the queue's blockstore.flush.* counters are gone, and every put and
// read now reaches the log's blockstore.put.* and blockstore.read.blocks
// counters. In 909104 a crash also tore a longer unsynced tail
// (blockstore.recover.truncated_bytes). Every schedule's event half,
// and the other 11 schedules' instrument half, hashed as before.
//
// The event digest was re-pinned once more, when the churn storm moved
// from adversary::AttackPlan into sim::FaultPlan, the one crash
// controller. The two storm schedules (909103 and attack family 4, seed
// 3004) now count their two storm crashes as FaultPlan crashes: their
// fingerprints read faults{crash=2 restart=2} instead of {crash=0
// restart=0}, and attack{events=0} instead of {events=2}. Their event
// counts, op tables and trace lines, and every line of the other 28
// schedules, are unchanged, and the instrument digest held.
//
// The event digest was re-pinned again when a DHT node stopped sweeping
// a record store that holds no records: the constructor queues no sweep,
// storing an ADD_PROVIDER arms one, and a sweep that empties the store
// does not re-arm. Only 909112's fingerprint moved, its executed-event
// count from events=4896863 to events=4896799; every trace line, every
// other field and the other 29 schedules are unchanged, and the
// instrument digest held.
constexpr const char* kPinnedEventDigest =
    "16f6427171ff2f336cbf838a16560824ac115ec692473ef6f4583a8ad484a3d6";
constexpr const char* kPinnedInstrumentDigest =
    "d9ffa08e341d0535120860aad4c4b2f8d0043034efbf82cffa5e7c8823ca7c1a";

TEST(SimFuzz, TraceStreamsMatchPinnedDigest) {
  // Determinism gate for the event core: the fingerprints, spans and
  // instants of 25 randomized schedules plus one schedule per attack
  // family, in emission order, hash to kPinnedEventDigest, and their
  // counters and histograms to kPinnedInstrumentDigest. Any change to
  // event order, rng draws or trace emission moves a digest. Re-pin one
  // only for a deliberate change of seeded output, and say why.
  crypto::Sha256 events;
  crypto::Sha256 instruments;
  const auto fold = [&](ScheduleParams params) {
    params.capture_trace = true;
    const ScheduleReport report = run_schedule(params);
    ASSERT_TRUE(report.ok()) << report.failure_summary();
    // A dropped trace event would leave part of the run outside the
    // digest.
    ASSERT_EQ(report.trace_dropped, 0u) << params.describe();
    ASSERT_FALSE(report.trace_jsonl.empty());
    events.update(report.stats.fingerprint());
    std::string_view jsonl = report.trace_jsonl;
    while (!jsonl.empty()) {
      const std::string_view line =
          jsonl.substr(0, std::min(jsonl.find('\n'), jsonl.size() - 1) + 1);
      jsonl.remove_prefix(line.size());
      const bool instrument = line.starts_with("{\"type\":\"counter\"") ||
                              line.starts_with("{\"type\":\"histogram\"");
      (instrument ? instruments : events).update(line);
    }
  };
  for (std::uint64_t i = 0; i < 25; ++i) {
    fold(make_schedule(909090 + i));
    if (HasFatalFailure()) return;
  }
  for (int family = 1; family <= 5; ++family) {
    ScheduleParams params =
        make_schedule(3000 + static_cast<std::uint64_t>(family));
    params.node_count = 10;
    params.long_horizon = false;
    params.publish_count = 2;
    params.retrievals_per_object = 2;
    params.max_object_bytes = 64 * 1024;
    params.attack = static_cast<ScheduleParams::Attack>(family);
    apply_attack_constraints(params);
    fold(params);
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(crypto::to_hex(events.finish()), kPinnedEventDigest);
  EXPECT_EQ(crypto::to_hex(instruments.finish()), kPinnedInstrumentDigest);
}

TEST(SimFuzz, FailureMessagesCarryReplaySeed) {
  const ScheduleParams params = make_schedule(77);
  EXPECT_NE(params.describe().find("seed=77"), std::string::npos);
  EXPECT_NE(params.describe().find("IPFS_FUZZ_SEED=77"), std::string::npos);

  ScheduleReport report;
  report.params = params;
  report.violations.push_back("synthetic violation");
  const std::string summary = report.failure_summary();
  EXPECT_NE(summary.find("IPFS_FUZZ_SEED=77"), std::string::npos);
  EXPECT_NE(summary.find("synthetic violation"), std::string::npos);
}

TEST(SimFuzz, ZeroFaultScheduleRetrievesEverything) {
  ScheduleParams params;
  params.seed = 31337;
  params.node_count = 14;
  params.nat_fraction = 0.2;
  params.flaky_fraction = 0.0;
  params.publish_count = 3;
  params.retrievals_per_object = 3;
  params.fault_scale = 0.0;
  params.faults = faults_for_scale(0.0, false);

  const ScheduleReport report = run_schedule(params);
  ASSERT_TRUE(report.ok()) << report.failure_summary();
  EXPECT_EQ(report.stats.publishes_ok(), params.publish_count);
  EXPECT_EQ(report.stats.retrievals_attempted(),
            params.publish_count * params.retrievals_per_object);
  EXPECT_EQ(report.stats.retrievals_ok(),
            params.publish_count * params.retrievals_per_object)
      << report.stats.fingerprint();
  EXPECT_EQ(report.stats.faults.total_injected(), 0u);
}

TEST(SimFuzz, PubsubWorkloadDeliversOnCleanSchedule) {
  ScheduleParams params;
  params.seed = 24601;
  params.node_count = 16;
  params.nat_fraction = 0.1;
  params.flaky_fraction = 0.0;
  params.publish_count = 2;
  params.retrievals_per_object = 1;
  params.fault_scale = 0.0;
  params.faults = faults_for_scale(0.0, false);
  params.pubsub_topics = 2;
  params.pubsub_subscriber_fraction = 0.6;
  params.pubsub_publish_count = 8;

  const ScheduleReport report = run_schedule(params);
  ASSERT_TRUE(report.ok()) << report.failure_summary();
  EXPECT_GT(report.stats.pubsub_publishes, 0u);
  // Every publish fans out to a multi-member subscriber set, so total
  // deliveries must clearly exceed the publish count.
  EXPECT_GT(report.stats.pubsub_deliveries, report.stats.pubsub_publishes);
}

TEST(SimFuzz, PubsubAtMostOnceHoldsUnderHeavyChurn) {
  // Full-intensity faults: crash-restarts wipe dedup caches and force
  // mesh repair, and the at-most-once ledger (which resets per subscriber
  // crash) must still hold at every delivery.
  ScheduleParams params;
  params.seed = 777;
  params.node_count = 18;
  params.nat_fraction = 0.2;
  params.flaky_fraction = 0.1;
  params.publish_count = 2;
  params.retrievals_per_object = 2;
  params.fault_scale = 1.0;
  params.faults = faults_for_scale(1.0, false);
  params.pubsub_topics = 1;
  params.pubsub_subscriber_fraction = 0.7;
  params.pubsub_publish_count = 10;

  const ScheduleReport report = run_schedule(params);
  ASSERT_TRUE(report.ok()) << report.failure_summary();
  EXPECT_GT(report.stats.faults.crashes, 0u)
      << "schedule was meant to crash nodes";
  EXPECT_GT(report.stats.pubsub_publishes, 0u);
}

TEST(SimFuzz, IndexerSchedulesHoldInvariantsAcrossFiveHundredSeeds) {
  // Satellite sweep for the delegated-routing invariants (9 and 10):
  // every schedule gets at least one indexer and every other one crashes
  // them mid-window. Worlds are kept small so 500 seeds stay tractable.
  const std::uint64_t base_seed = env_u64("IPFS_FUZZ_SEED", 50'000);
  const std::uint64_t schedules = env_u64("IPFS_FUZZ_INDEXER_SCHEDULES", 500);

  std::uint64_t indexer_routed = 0;
  std::uint64_t indexer_crashes = 0;
  std::size_t clean_crash_schedules = 0;
  for (std::uint64_t i = 0; i < schedules; ++i) {
    ScheduleParams params = make_schedule(base_seed + i);
    params.node_count = std::min<std::size_t>(params.node_count, 12);
    params.long_horizon = false;
    params.publish_count = std::min<std::size_t>(params.publish_count, 3);
    params.retrievals_per_object =
        std::min<std::size_t>(params.retrievals_per_object, 2);
    params.max_object_bytes =
        std::min<std::size_t>(params.max_object_bytes, 128 * 1024);
    if (params.indexer_count == 0) params.indexer_count = 1 + (i % 2);
    params.indexer_crashes = (i % 2) == 0;
    if (params.fault_scale == 0.0 && params.indexer_crashes)
      ++clean_crash_schedules;

    const ScheduleReport report = run_schedule(params);
    ASSERT_TRUE(report.ok()) << report.failure_summary();
    indexer_routed += report.stats.indexer_routed;
    indexer_crashes += report.stats.indexer_crashes;
  }

  if (schedules >= 100) {
    // The sweep must actually exercise both sides of the race: fetches
    // won by the delegated path, and indexer crash/restart cycles.
    EXPECT_GT(indexer_routed, 0u);
    EXPECT_GT(indexer_crashes, 0u);
    // And some schedules bind invariant 10 (indexer crashes as the only
    // faults).
    EXPECT_GT(clean_crash_schedules, 0u);
  }
}

TEST(SimFuzz, IndexerCrashesNeverFailAFetchTheDhtWouldServe) {
  // Invariant 10, pinned: a clean schedule whose only faults are indexer
  // crashes must retrieve everything — the race degrades to the DHT arm.
  ScheduleParams params;
  params.seed = 90210;
  params.node_count = 14;
  params.nat_fraction = 0.1;
  params.flaky_fraction = 0.0;
  params.publish_count = 3;
  params.retrievals_per_object = 3;
  params.fault_scale = 0.0;
  params.faults = faults_for_scale(0.0, false);
  params.indexer_count = 2;
  params.indexer_ingest_lag = sim::seconds(5);
  params.indexer_crashes = true;

  const ScheduleReport report = run_schedule(params);
  ASSERT_TRUE(report.ok()) << report.failure_summary();
  EXPECT_EQ(report.stats.indexer_crashes, 2u);
  EXPECT_EQ(report.stats.retrievals_ok(), report.stats.retrievals_attempted())
      << report.stats.fingerprint();
}

TEST(SimFuzz, AttackSchedulesHoldInvariantsAcrossFiveHundredSeeds) {
  // Satellite sweep for the adversarial invariants (11-13): every
  // schedule runs one attack family, round-robin so coverage never
  // depends on the 40% attack draw, with the defense knobs as drawn from
  // the schedule-adversary fork and then re-normalized. Worlds are kept
  // small so 500 seeds stay tractable.
  const std::uint64_t base_seed = env_u64("IPFS_FUZZ_SEED", 80'000);
  const std::uint64_t schedules = env_u64("IPFS_FUZZ_ATTACK_SCHEDULES", 500);

  std::uint64_t attack_events = 0;
  std::uint64_t flash_fired = 0;
  std::uint64_t flash_completions = 0;
  std::uint64_t sybil_rejections = 0;
  std::size_t capped_sybil_schedules = 0;
  for (std::uint64_t i = 0; i < schedules; ++i) {
    ScheduleParams params = make_schedule(base_seed + i);
    params.node_count = std::min<std::size_t>(params.node_count, 12);
    params.long_horizon = false;
    params.publish_count = std::min<std::size_t>(params.publish_count, 3);
    params.retrievals_per_object =
        std::min<std::size_t>(params.retrievals_per_object, 2);
    params.max_object_bytes =
        std::min<std::size_t>(params.max_object_bytes, 128 * 1024);
    params.attack = static_cast<ScheduleParams::Attack>(1 + (i % 5));
    apply_attack_constraints(params);
    if (params.attack == ScheduleParams::Attack::kSybil &&
        params.diversity_cap > 0)
      ++capped_sybil_schedules;

    const ScheduleReport report = run_schedule(params);
    ASSERT_TRUE(report.ok()) << report.failure_summary();
    attack_events += report.stats.attack_events;
    flash_fired += report.stats.flash_fired;
    flash_completions += report.stats.flash_completions;
    sybil_rejections += report.stats.sybil_rejections;
  }

  if (schedules >= 100) {
    // The sweep must actually land attacks, fire flash crowds that all
    // complete (invariant 12), and exercise the diversity cap both ways.
    EXPECT_GT(attack_events, 0u);
    EXPECT_GT(flash_fired, 0u);
    EXPECT_EQ(flash_completions, flash_fired);
    EXPECT_GT(capped_sybil_schedules, 0u);
    EXPECT_GT(sybil_rejections, 0u);
  }
}

TEST(SimFuzz, ApplyAttackConstraintsNormalizesDefenses) {
  // kNone switches every defense off — historical seeds must replay
  // their pre-adversary schedules bit-identically.
  ScheduleParams params = make_schedule(123);
  params.attack = ScheduleParams::Attack::kNone;
  params.diversity_cap = 3;
  params.provider_quorum = 4;
  params.flash_requests = 9;
  params.flash_dead_cid = true;
  apply_attack_constraints(params);
  EXPECT_EQ(params.diversity_cap, 0u);
  EXPECT_EQ(params.provider_quorum, 1u);
  EXPECT_EQ(params.flash_requests, 0u);
  EXPECT_FALSE(params.flash_dead_cid);

  // Eclipse schedules arm the full defense stack: invariant 11 relies on
  // a healthy indexer escape hatch and nothing else degrading retrievals.
  ScheduleParams eclipse = make_schedule(123);
  eclipse.attack = ScheduleParams::Attack::kEclipse;
  eclipse.indexer_count = 0;
  eclipse.indexer_crashes = true;
  eclipse.fault_scale = 1.0;
  apply_attack_constraints(eclipse);
  EXPECT_GE(eclipse.indexer_count, 1u);
  EXPECT_FALSE(eclipse.indexer_crashes);
  EXPECT_EQ(eclipse.fault_scale, 0.0);
  EXPECT_GE(eclipse.provider_quorum, 3u);
  EXPECT_GE(eclipse.diversity_cap, 2u);
  EXPECT_EQ(eclipse.flash_requests, 0u);

  // Storm schedules run no crash cycle beside the storm: a cycle would
  // change the run every storm seed replays.
  ScheduleParams storm = make_schedule(123);
  storm.attack = ScheduleParams::Attack::kChurnStorm;
  storm.fault_scale = 1.0;
  apply_attack_constraints(storm);
  EXPECT_EQ(storm.faults.crashes_per_hour_per_node, 0.0);
}

TEST(SimFuzz, FlashCrowdAgainstADeadCidCompletesEveryRequest) {
  // Invariant 12, pinned: a burst chasing a never-published CID must end
  // in typed failures, never hangs — every fired slot completes.
  ScheduleParams params;
  params.seed = 1717;
  params.node_count = 12;
  params.nat_fraction = 0.0;
  params.flaky_fraction = 0.0;
  params.publish_count = 2;
  params.retrievals_per_object = 2;
  params.fault_scale = 0.0;
  params.faults = faults_for_scale(0.0, false);
  params.attack = ScheduleParams::Attack::kFlashCrowd;
  params.flash_requests = 10;
  params.flash_dead_cid = true;

  const ScheduleReport report = run_schedule(params);
  ASSERT_TRUE(report.ok()) << report.failure_summary();
  EXPECT_GT(report.stats.flash_fired, 0u);
  EXPECT_EQ(report.stats.flash_completions, report.stats.flash_fired);
  EXPECT_GT(report.stats.attack_events, 0u);
}

TEST(SimFuzz, SybilFloodStaysWithinTheDiversityCap) {
  // Invariant 13, pinned: a capped sybil schedule keeps every bucket's
  // adversarial occupancy within the cap, and the turned-away flood
  // shows up in the rejection counter.
  ScheduleParams params;
  params.seed = 2718;
  params.node_count = 12;
  params.nat_fraction = 0.0;
  params.flaky_fraction = 0.0;
  params.publish_count = 2;
  params.retrievals_per_object = 2;
  params.fault_scale = 0.0;
  params.faults = faults_for_scale(0.0, false);
  params.attack = ScheduleParams::Attack::kSybil;
  params.diversity_cap = 2;

  const ScheduleReport report = run_schedule(params);
  ASSERT_TRUE(report.ok()) << report.failure_summary();
  EXPECT_GT(report.stats.attack_events, 0u);
  EXPECT_GT(report.stats.sybil_rejections, 0u);
}

TEST(SimFuzz, DescribeCarriesTheAttackKnobs) {
  ScheduleParams params = make_schedule(55);
  params.attack = ScheduleParams::Attack::kEclipse;
  apply_attack_constraints(params);
  const std::string text = params.describe();
  EXPECT_NE(text.find("attack=eclipse"), std::string::npos);
  EXPECT_NE(text.find("diversity_cap="), std::string::npos);
  EXPECT_NE(text.find("provider_quorum="), std::string::npos);
  EXPECT_NE(text.find("flash_requests="), std::string::npos);

  EXPECT_EQ(std::string(attack_name(ScheduleParams::Attack::kNone)), "none");
  EXPECT_EQ(std::string(attack_name(ScheduleParams::Attack::kSybil)), "sybil");
  EXPECT_EQ(std::string(attack_name(ScheduleParams::Attack::kFlashCrowd)),
            "flash");
  EXPECT_EQ(std::string(attack_name(ScheduleParams::Attack::kChurnStorm)),
            "storm");
  EXPECT_EQ(std::string(attack_name(ScheduleParams::Attack::kPartition)),
            "partition");
}

TEST(SimFuzz, LongHorizonScheduleExpiresProviderRecords) {
  ScheduleParams params;
  params.seed = 9001;
  params.node_count = 12;
  params.nat_fraction = 0.0;
  params.flaky_fraction = 0.0;
  params.publish_count = 2;
  params.retrievals_per_object = 2;
  params.long_horizon = true;
  params.fault_scale = 0.3;
  params.faults = faults_for_scale(0.3, true);

  const ScheduleReport report = run_schedule(params);
  ASSERT_TRUE(report.ok()) << report.failure_summary();
}

}  // namespace
}  // namespace ipfs::simfuzz
