// Seeded simulation-fuzz harness for the full publish -> provide ->
// resolve -> Bitswap-fetch pipeline.
//
// A *schedule* is one randomized end-to-end run: a world (regions, NAT'ed
// and flaky tails), a fault plan (sim/faults.h), and a workload of
// publishes and retrievals, all derived from a single seed. After the run
// drains, global invariants are checked:
//
//   1. Content integrity: every successful retrieval reassembles exactly
//      the published bytes; anything else fails with a typed error
//      (RetrievalTrace.ok == false), never silently.
//   2. Completion: every attempted operation completes exactly once, OR
//      its requester crashed after the operation started (a crashed
//      process takes its callbacks with it).
//   3. No leaks: zero live foreground events and zero pending
//      request/response exchanges after the drain.
//   4. Routing hygiene: no routing table contains its own peer or a
//      duplicate entry.
//   5. Record expiry: no provider record outlives its expiry by more than
//      one sweep interval plus the maximum crash downtime.
//   6. Conservation: for every ordered node pair, blocks (and bytes)
//      received from a peer never exceed what that peer's ledger sent.
//   7. Pubsub at-most-once: no subscriber delivers the same message id
//      twice. The per-subscriber ledger resets when that subscriber
//      crashes — a crash legitimately wipes the dedup cache, so one
//      post-restart redelivery is correct behaviour, not a violation.
//   8. Pubsub delivery: on clean schedules (fault scale 0, so no drops
//      and no crashes), every subscriber of a topic delivers every
//      message published to it exactly once by the end of the drain.
//      Faulty schedules can partition a mesh for longer than the run
//      lasts, so there only invariant 7 binds.
//   9. Routing equivalence: a retrieval served via the delegated indexer
//      path reassembles exactly the published bytes — the indexer may
//      only change *where* providers are found, never *what* Bitswap
//      fetches.
//  10. Indexer crashes are non-fatal: on schedules whose only faults are
//      harness-scheduled indexer crashes (fault scale 0, no population
//      crashes), every attempted retrieval still succeeds — the race
//      router must degrade to the DHT path, so no fetch fails that a
//      DHT-only configuration would have served.
//  11. Eclipse resilience: on eclipse schedules (which force at least one
//      healthy indexer and no other faults), every retrieval of the
//      eclipsed CID that starts after the indexer ingest settles still
//      succeeds — the indexer race is the escape hatch the poisoned XOR
//      neighborhood cannot block.
//  12. Flash-crowd accounting: the crowd hits an HTTP gateway (the
//      entity a real flash crowd melts); every fired flash request
//      completes exactly once, and a crowd chasing a never-published CID
//      gets a typed failure, never a hang or a phantom success. On
//      dead-CID schedules each client retries 5 s after its failure —
//      inside the gateway's negative-result TTL — and the repeat wave
//      must also complete exactly once, never ok, with the negative
//      cache absorbing at least part of it (the dead-CID stampede
//      shield). (Block conservation, invariant 6, covers the
//      at-most-once accounting underneath.)
//  13. Sybil containment: with a per-bucket diversity cap D armed, no
//      routing-table bucket on any node holds more than D adversarial
//      entries — the flood is bounded by the defense, not by luck.
//  14. Acked-put durability: IpfsNode::add flushes the block store before
//      returning, so a locally published object is acked. Every acked
//      object must still reassemble from its publisher's store at the end
//      of the run — no matter how many crash/restart cycles the publisher
//      went through, and (on persist_stores schedules) how much of the
//      log's unsynced tail each crash tore off.
//
// Any violation message embeds ScheduleParams::describe(), which includes
// the seed and a one-command replay line.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/faults.h"
#include "sim/network.h"
#include "sim/time.h"

namespace ipfs::simfuzz {

struct ScheduleParams {
  std::uint64_t seed = 0;

  // Serialize the trace stream into ScheduleReport::trace_jsonl even on
  // clean runs (normally only violations pay the serialization cost).
  // The pinned-digest determinism test hashes these.
  bool capture_trace = false;

  // World shape.
  std::size_t node_count = 16;
  double nat_fraction = 0.2;    // NAT'ed (undialable, relayed) tail
  double flaky_fraction = 0.1;  // dial_success_prob < 1 tail

  // Workload.
  std::size_t publish_count = 4;
  std::size_t retrievals_per_object = 3;
  std::size_t min_object_bytes = 1 * 1024;
  std::size_t max_object_bytes = 512 * 1024;
  sim::Duration workload_window = sim::minutes(2);

  // Pubsub workload: every node runs the GossipSub engine; each topic
  // gets a random subscriber set (at least two members) and the
  // publishes land at random points inside the workload window, from
  // random nodes — subscribed or not, so the fanout path is exercised
  // alongside the mesh. All pubsub randomness comes from dedicated rng
  // forks, leaving the pre-existing schedule streams bit-identical.
  std::size_t pubsub_topics = 2;
  double pubsub_subscriber_fraction = 0.5;
  std::size_t pubsub_publish_count = 5;

  // Delegated content routing (docs/ROUTING.md): when indexer_count > 0
  // the schedule appends that many indexer nodes and every IPFS node
  // races them against the DHT walk for provider discovery. With
  // indexer_crashes set, each indexer is crashed once at a random point
  // inside the workload window and restarted after a short downtime, all
  // from a dedicated rng fork (invariant 10 above). indexer_count = 0
  // reproduces the pre-indexer schedules bit-identically.
  std::size_t indexer_count = 0;
  sim::Duration indexer_ingest_lag = sim::seconds(30);
  bool indexer_crashes = false;
  // Stretch the run past provider-record expiry (26 h simulated) with
  // retrievals spread across the horizon, exercising the 12 h republish
  // and the expiry sweeps under faults.
  bool long_horizon = false;

  // Persistent data plane (docs/BLOCKSTORE.md): when set, every
  // population node runs the log-structured store (over in-memory
  // Storage, so FaultPlan crashes exercise the drop-unsynced truncation
  // + log-replay recovery path, invariant 14). Drawn from a dedicated
  // "schedule-persist" fork, so persist-off seeds replay their
  // pre-persist schedules bit-identically.
  bool persist_stores = false;
  // Periodic flush cadence for the node daemon tick
  // (StoreConfig::flush_interval_us); 0 leaves only the flush in
  // IpfsNode::add.
  std::int64_t persist_flush_interval_us = 0;

  // Fault intensity in [0, 1]; the derived per-fault rates live in
  // `faults`. 0 means a clean run (the injector is installed but draws
  // nothing).
  double fault_scale = 0.0;
  sim::FaultConfig faults;

  // Adversarial attack schedule (docs/ADVERSARY.md). At most one attack
  // family runs per schedule, as an adversary::AttackPlan layered over
  // the fault plan (a churn storm runs as a process of the fault plan
  // itself); the controller parameters are fixed by the harness
  // while the defense knobs below feed every node's IpfsNodeConfig.
  // kNone forces the defenses off too, so historical seeds replay their
  // pre-adversary schedules bit-identically. All adversary knobs draw
  // from their own "schedule-adversary" fork.
  enum class Attack { kNone, kSybil, kEclipse, kFlashCrowd, kChurnStorm,
                      kPartition };
  Attack attack = Attack::kNone;
  std::size_t diversity_cap = 0;    // per-bucket /16 cap, 0 = defense off
  std::size_t provider_quorum = 1;  // GetProviders termination quorum
  std::size_t flash_requests = 0;   // flash-crowd burst size
  bool flash_dead_cid = false;      // the crowd chases an unpublished CID

  // Human- and machine-readable parameter dump, including the seed and a
  // replay command. Embedded in every violation message.
  std::string describe() const;
};

// Derives the fault rates for `scale`, capped for long-horizon runs so a
// 26 h schedule stays tractable.
sim::FaultConfig faults_for_scale(double scale, bool long_horizon);

// Randomizes a full schedule from `seed` (deterministic: same seed, same
// schedule).
ScheduleParams make_schedule(std::uint64_t seed);

// Normalizes the attack knobs into the self-consistent shape invariants
// 11-13 rely on (eclipse schedules force a healthy indexer and no other
// faults, flash/storm schedules keep FaultPlan crashes out of the way,
// kNone switches every defense off). make_schedule applies this after
// drawing; sweep tests that force an attack type must re-apply it.
void apply_attack_constraints(ScheduleParams& params);

// Short attack-type name ("none", "sybil", ...), for logs and describe().
const char* attack_name(ScheduleParams::Attack attack);

// One publish or retrieval in the op table.
struct OpRecord {
  enum class Kind { kPublish, kRetrieve };
  Kind kind = Kind::kPublish;
  std::size_t object = 0;            // object index within the schedule
  sim::NodeId node = sim::kInvalidNode;
  sim::Time start = 0;               // when the op fired (0 if never)
  bool attempted = false;            // false: requester was offline
  bool completed = false;
  bool ok = false;
  sim::Duration elapsed = 0;
};

struct ScheduleStats {
  std::vector<OpRecord> ops;
  std::uint64_t bytes_fetched = 0;
  std::uint64_t events_executed = 0;
  sim::FaultPlan::Counters faults;

  // Pubsub workload totals (part of the fingerprint, so the pinned-digest
  // and replay determinism checks cover the gossip overlay too).
  std::uint64_t pubsub_publishes = 0;    // publish calls that fired
  std::uint64_t pubsub_deliveries = 0;   // subscriber callbacks invoked
  std::uint64_t pubsub_duplicates = 0;   // dedup-cache suppressions

  // Delegated-routing workload totals.
  std::uint64_t indexer_crashes = 0;     // harness-scheduled indexer crashes
  std::uint64_t indexer_routed = 0;      // retrievals won by the indexer path

  // Adversarial workload totals (docs/ADVERSARY.md).
  std::uint64_t attack_events = 0;       // AttackPlan counter grand total
  std::uint64_t flash_fired = 0;         // flash-crowd requests launched
  std::uint64_t flash_completions = 0;   // their completions (invariant 12)
  std::uint64_t flash_repeat_fired = 0;  // dead-CID retry wave launched
  std::uint64_t flash_repeat_completions = 0;  // retry completions
  std::uint64_t flash_negative_hits = 0;  // gateway negative-cache hits
  std::uint64_t sybil_rejections = 0;    // diversity-cap upsert refusals

  std::size_t publishes_ok() const;
  std::size_t retrievals_attempted() const;
  std::size_t retrievals_ok() const;

  // Canonical serialization of everything above. Two runs of the same
  // schedule must produce byte-identical fingerprints (the seeded-
  // determinism regression test diffs them).
  std::string fingerprint() const;
};

struct ScheduleReport {
  ScheduleParams params;
  ScheduleStats stats;
  std::vector<std::string> violations;
  // On any invariant violation, the full metrics registry (counters,
  // histograms, and the span/instant trace stream) serialized as JSONL —
  // the flight recording of the failing seeded schedule. Empty on clean
  // runs, so green fuzz sweeps pay no serialization cost. Also written to
  // `trace_dump_path` (simfuzz_trace_<seed>.jsonl in the working
  // directory) so a failing CI run leaves an artifact.
  std::string trace_jsonl;
  std::string trace_dump_path;
  // Trace events the registry counted but did not store: the stream keeps
  // only the first trace_capacity events of a run. A determinism check
  // over trace_jsonl covers the whole run only when this is 0.
  std::size_t trace_dropped = 0;

  bool ok() const { return violations.empty(); }
  // Violations plus the replay info; suitable as a gtest failure message.
  std::string failure_summary() const;
};

// Runs one schedule to completion and checks every invariant.
ScheduleReport run_schedule(const ScheduleParams& params);

}  // namespace ipfs::simfuzz
