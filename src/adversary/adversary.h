// Adversarial scenario pack (docs/ADVERSARY.md): deterministic attack
// controllers woven through the event core, modeled on Henningsen et
// al.'s measurements of the public IPFS DHT ("Mapping the Interplanetary
// Filesystem"): the DHT is cheaply enumerable, node IDs are free, and a
// handful of machines can flood k-buckets or occupy the XOR neighborhood
// of a chosen key.
//
// An AttackPlan is the adversary twin of sim::FaultPlan: constructed over
// the network (appending its attacker nodes AFTER every honest node, so
// switched-off attacks leave node ids and seeded rng streams
// bit-identical), armed to start its event-driven behaviors, and fully
// replayable from (seed, config). It never takes a node up or down:
// sim::FaultPlan is the one crash controller, and the churn storm is one
// of its processes (sim/faults.h). Four attack families:
//
//  - Sybil flood: a few real attacker nodes front many forged PeerRefs
//    whose IDs are mined (generate-and-test) to land in a chosen bucket
//    of each victim, then pushed into victim routing tables through the
//    identify side effect of server-stamped FIND_NODE requests. All
//    forged identities advertise addresses in one /16 — the handle the
//    RoutingTable diversity cap grips.
//  - Eclipse: attacker nodes whose mined IDs sit closer to a target key
//    than any honest peer. They answer queries for the target with each
//    other as "closer", swallow AddProvider records, and (optionally)
//    serve a poisoned record pointing at an undialable ghost. Defenses:
//    diversity caps, LookupHost::provider_quorum, the indexer race.
//  - Flash crowd: a burst of requests for one (possibly dead) CID in a
//    narrow window. The plan owns the deterministic schedule and fires a
//    caller-provided handler per request slot (the harness maps slots to
//    gateway hits or node retrievals).
//  - Partition: a region-scale partition with heal. The partition is a
//    FaultInjector *decorator*: it wraps whatever injector is already
//    installed (e.g. a FaultPlan) instead of replacing it. Arm after the
//    inner plan's arm(); detach in reverse order.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dht/key.h"
#include "dht/lookup.h"
#include "dht/messages.h"
#include "dht/routing_table.h"
#include "sim/network.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace ipfs::adversary {

struct SybilConfig {
  // Forged identities mined per victim. Each is mined so its key shares
  // exactly `target_cpl` prefix bits with the victim's key — all of one
  // victim's sybils land in the same (deep, mostly empty) k-bucket,
  // where classic Kademlia accepts every newcomer.
  std::size_t per_victim = dht::kBucketSize;
  int target_cpl = 8;
  // Flood schedule: `rounds` rounds of server-stamped FIND_NODE bursts,
  // the first at `start`, every `interval` thereafter.
  sim::Duration start = sim::seconds(1);
  std::size_t rounds = 3;
  sim::Duration interval = sim::seconds(30);
};

struct EclipseConfig {
  // Real attacker nodes mined into the target key's XOR neighborhood.
  // k of them suffice to absorb a full publication's store batch.
  std::size_t attackers = dht::kReplication;
  // Mined closeness: every attacker key shares >= min_cpl prefix bits
  // with the target. With n honest peers the closest honest peer sits at
  // ~log2(n) bits, so the default beats any honest swarm below ~4096.
  int min_cpl = 12;
  // When the attackers introduce themselves to the victims (the identify
  // side effect plants them in victim tables; from there every walk
  // towards the target discovers them as closest).
  sim::Duration announce_at = sim::seconds(0);
};

struct FlashCrowdConfig {
  std::size_t requests = 0;
  sim::Duration start = sim::seconds(1);
  sim::Duration window = sim::seconds(10);
};

struct PartitionConfig {
  // Region groups that can only talk within their group while the
  // partition holds. Regions not listed anywhere are unaffected.
  std::vector<std::vector<int>> groups;
  sim::Duration start = 0;
  sim::Duration heal_at = sim::minutes(5);
};

struct AttackConfig {
  std::optional<SybilConfig> sybil;
  // Eclipse is enabled by the presence of a target key.
  std::optional<dht::Key> eclipse_target;
  EclipseConfig eclipse;
  std::optional<FlashCrowdConfig> flash_crowd;
  std::optional<PartitionConfig> partition;

  bool any() const {
    return sybil || eclipse_target || flash_crowd || partition;
  }
};

class AttackPlan : public sim::FaultInjector {
 public:
  // Fired once per flash-crowd request slot at its scheduled time.
  using FlashRequestHandler = std::function<void(std::size_t slot)>;

  // Appends the attacker/ghost nodes to `network` (construct AFTER every
  // honest node so disabled attacks keep node ids bit-identical) and
  // mines the eclipse identities. No behavior starts until arm().
  AttackPlan(sim::Network& network, AttackConfig config, std::uint64_t seed);
  ~AttackPlan() override;

  AttackPlan(const AttackPlan&) = delete;
  AttackPlan& operator=(const AttackPlan&) = delete;

  // Sybil flood and eclipse-announce targets. Victim keys also drive the
  // per-victim Sybil ID mining, so add every victim before arm().
  void add_victim(const dht::PeerRef& victim);

  void set_flash_request_handler(FlashRequestHandler handler);

  // Mines the per-victim Sybil identities, wraps the network's fault
  // injector when a partition is configured, and schedules every attack
  // event. Call after any FaultPlan::arm() (the decorator wraps the
  // injector installed at this moment).
  void arm();

  // Cancels pending attack events. The partition decorator stays
  // installed; detach() removes it. Detach before any inner
  // FaultPlan::detach().
  void disarm();
  void detach();

  bool armed() const { return armed_; }
  const AttackConfig& config() const { return config_; }

  // --- Introspection -------------------------------------------------------

  const std::vector<dht::PeerRef>& eclipse_refs() const {
    return eclipse_refs_;
  }
  // Sybil identities mined for victim i (parallel to add_victim order).
  const std::vector<dht::PeerRef>& sybil_refs(std::size_t victim) const {
    return sybils_per_victim_[victim];
  }
  std::size_t victim_count() const { return victims_.size(); }
  const dht::PeerRef& ghost_provider() const { return ghost_ref_; }

  // True for every identity this plan minted (sybils, eclipse attackers,
  // the ghost). The simfuzz occupancy invariant filters tables with this.
  bool is_adversarial_id(const multiformats::PeerId& id) const;

  bool partition_active() const;

  struct Counters {
    std::uint64_t sybil_ids_minted = 0;
    std::uint64_t flood_requests_sent = 0;
    std::uint64_t eclipse_queries_answered = 0;
    std::uint64_t poisoned_records_served = 0;
    std::uint64_t provider_records_swallowed = 0;
    std::uint64_t flash_requests = 0;
    std::uint64_t partition_messages_dropped = 0;
    std::uint64_t partition_dials_blocked = 0;

    std::uint64_t total_attack_events() const {
      return flood_requests_sent + eclipse_queries_answered +
             provider_records_swallowed + flash_requests +
             partition_messages_dropped + partition_dials_blocked;
    }
  };
  const Counters& counters() const { return counters_; }

  // --- FaultInjector (partition decorator) ---------------------------------

  bool drop_message(sim::NodeId from, sim::NodeId to) override;
  bool duplicate_message(sim::NodeId from, sim::NodeId to) override;
  sim::Duration reorder_delay(sim::NodeId from, sim::NodeId to) override;
  bool fail_dial(sim::NodeId from, sim::NodeId to) override;
  double latency_factor(sim::NodeId a, sim::NodeId b) override;

  // Deterministic forged identity n — domain-separated from
  // scenario::synthetic_peer_id and world::synthetic_peer_id so attacker
  // identities never alias an honest peer's.
  static multiformats::PeerId forged_peer_id(std::uint64_t n);
  // Attacker addresses all live in 66.6.0.0/16: one operator's address
  // block, the diversity class the per-bucket cap counts.
  static multiformats::Multiaddr attacker_address(std::uint32_t n);

 private:
  dht::PeerRef mint_ref(sim::NodeId node,
                        const std::function<bool(const dht::Key&)>& accept);
  void handle_attacker_request(
      sim::NodeId self, sim::NodeId from, const sim::MessagePtr& message,
      const std::function<void(sim::MessagePtr, std::size_t)>& respond);
  void schedule_flood_round(std::size_t round);
  void announce_eclipse();
  bool partition_blocks(sim::NodeId from, sim::NodeId to);
  int group_of(sim::NodeId node) const;

  sim::Network& network_;
  AttackConfig config_;
  sim::Rng flash_rng_;
  std::uint64_t mint_counter_ = 0;

  bool armed_ = false;
  bool installed_ = false;
  sim::FaultInjector* inner_ = nullptr;  // wrapped by the partition
  sim::Time armed_at_ = 0;
  Counters counters_;

  std::vector<sim::NodeId> sybil_fronts_;
  std::vector<dht::PeerRef> eclipse_refs_;
  dht::PeerRef ghost_ref_;
  sim::NodeId ghost_node_ = sim::kInvalidNode;

  std::vector<dht::PeerRef> victims_;
  std::vector<dht::Key> victim_keys_;
  std::vector<std::vector<dht::PeerRef>> sybils_per_victim_;
  std::unordered_set<dht::Key, dht::KeyHasher> forged_keys_;

  FlashRequestHandler flash_handler_;
  std::vector<sim::Timer> event_timers_;  // flood rounds, announce, flash

  std::unordered_map<int, int> region_group_;
};

}  // namespace ipfs::adversary
