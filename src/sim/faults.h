// Deterministic fault injection for the simulator.
//
// A FaultPlan composes onto sim::Network through the FaultInjector hook
// and adds the failure modes the paper's live measurements are dominated
// by (Sections 5-6: dead routing entries, unreachable peers, flaky
// transports): message drop/duplication/reordering, per-link latency
// spikes, dial failures, mid-transfer connection resets, peer
// crash/restart cycles and a one-off churn storm. Everything is driven
// by named forks of a single seed, so a failing fuzz schedule replays
// bit-for-bit from its seed.
//
// FaultPlan is the one controller that crashes a node. A simulated node
// is only ever up or down (Network::set_online); the crash cycle and the
// storm both take a managed node down through the same path, and each
// managed node holds at most one pending FaultPlan event.
//
// Crash vs. churn: sim::ChurnProcess models voluntary session cycling
// (peers leave and later rejoin with their state intact at the network
// level). A FaultPlan crash is harsher — the process dies, losing soft
// state (routing table, in-flight lookups and discoveries) while keeping
// the blockstore on disk. The protocol-level consequences are applied by
// crash listeners (see dht::DhtNode::handle_crash / node::IpfsNode).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/network.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace ipfs::sim {

struct ChurnStormConfig {
  // Each node under manage_crashes() crashes with probability `fraction`,
  // at a time uniform in [start, start + window), staying down for a
  // uniform draw of [min_downtime, max_downtime).
  double fraction = 0.5;
  Duration start = seconds(1);
  Duration window = seconds(30);
  Duration min_downtime = seconds(20);
  Duration max_downtime = seconds(60);
};

struct FaultConfig {
  // --- Message-level faults, applied per message on live connections ----
  double drop_prob = 0.0;
  double duplicate_prob = 0.0;
  double reorder_prob = 0.0;
  Duration reorder_max_delay = milliseconds(250);

  // Extra per-dial failure probability on top of the fabric's own
  // dial_success_prob model. Injected failures hang until the transport
  // timeout (half-broken NAT mapping, not a fast RST).
  double dial_failure_prob = 0.0;

  // --- Background Poisson processes (armed via arm()) ------------------
  // Network-wide latency spikes: a random node's links slow down by
  // latency_spike_factor for latency_spike_duration.
  double latency_spikes_per_hour = 0.0;
  double latency_spike_factor = 8.0;
  Duration latency_spike_duration = seconds(10);

  // Mid-transfer connection resets: a random live connection is torn down
  // and every in-flight request on it fails with RpcStatus::kReset.
  double connection_resets_per_hour = 0.0;

  // Crash/restart cycling for nodes under manage_crashes(). Rate is per
  // managed node; downtime is uniform in [min_downtime, max_downtime].
  double crashes_per_hour_per_node = 0.0;
  Duration min_downtime = seconds(10);
  Duration max_downtime = minutes(2);

  // A synchronized crash wave over the managed nodes, drawn once at
  // arm(). A storm crash takes the node's pending crash-cycle event; the
  // cycle resumes when the node restarts, or at once when the storm finds
  // the node already down.
  std::optional<ChurnStormConfig> churn_storm;
};

class FaultPlan : public FaultInjector {
 public:
  // Notified after the network state changed: (node, false) on crash,
  // (node, true) on restart.
  using CrashListener = std::function<void(NodeId, bool online)>;

  FaultPlan(Network& network, FaultConfig config, std::uint64_t seed);
  ~FaultPlan() override;

  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  // Puts `node` under crash/restart management (takes effect on arm();
  // the storm covers the nodes managed by then).
  void manage_crashes(NodeId node);
  void add_crash_listener(CrashListener listener);

  // Installs the injector on the network and starts the background
  // processes.
  void arm();

  // Stops the background processes and revives any node still down from
  // a crash or the storm (notifying listeners), so a subsequent run() drains
  // instead of chasing an endless crash/restart cycle. The message-level
  // injector stays installed; call detach() to remove it too.
  void disarm();

  // Removes the injector from the network (implies disarm()).
  void detach();

  bool armed() const { return armed_; }
  const FaultConfig& config() const { return config_; }

  // FaultInjector interface (consulted by the network fabric).
  bool drop_message(NodeId from, NodeId to) override;
  bool duplicate_message(NodeId from, NodeId to) override;
  Duration reorder_delay(NodeId from, NodeId to) override;
  bool fail_dial(NodeId from, NodeId to) override;
  double latency_factor(NodeId a, NodeId b) override;

  struct Counters {
    std::uint64_t messages_dropped = 0;
    std::uint64_t messages_duplicated = 0;
    std::uint64_t messages_reordered = 0;
    std::uint64_t dials_failed = 0;
    std::uint64_t latency_spikes = 0;
    std::uint64_t connection_resets = 0;
    std::uint64_t crashes = 0;
    std::uint64_t restarts = 0;

    std::uint64_t total_injected() const {
      return messages_dropped + messages_duplicated + messages_reordered +
             dials_failed + latency_spikes + connection_resets + crashes;
    }
  };
  const Counters& counters() const { return counters_; }

  // Nodes currently offline because of an injected crash.
  std::size_t crashed_count() const;

 private:
  void schedule_spike();
  void schedule_reset();
  void schedule_crash(std::size_t index);
  void schedule_storm();
  // The one crash path: the crash cycle and the storm both call it.
  void crash(std::size_t index, Duration downtime);
  void restart(std::size_t index);
  void notify(NodeId node, bool online);

  Network& network_;
  FaultConfig config_;
  Rng msg_rng_;    // drop/duplicate/reorder draws
  Rng dial_rng_;   // injected dial failures
  Rng proc_rng_;   // background process scheduling
  Rng storm_rng_;  // churn-storm draws
  bool armed_ = false;
  bool installed_ = false;
  Counters counters_;

  std::vector<NodeId> managed_;
  std::vector<bool> down_;       // parallel to managed_: crashed right now
  // Parallel: the node's one pending event (next crash, storm crash or
  // restart).
  std::vector<Timer> crash_timers_;
  std::vector<CrashListener> listeners_;

  Timer spike_timer_;
  Timer reset_timer_;
  std::unordered_map<NodeId, Time> spike_until_;
};

}  // namespace ipfs::sim
