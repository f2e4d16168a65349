#include "sim/faults.h"

#include <algorithm>

namespace ipfs::sim {

namespace {

// Mean wait for a Poisson process of `per_hour` events.
Duration poisson_wait(Rng& rng, double per_hour) {
  return static_cast<Duration>(rng.exponential(3600e6 / per_hour));
}

}  // namespace

FaultPlan::FaultPlan(Network& network, FaultConfig config, std::uint64_t seed)
    : network_(network),
      config_(config),
      msg_rng_(Rng(seed).fork("fault-msg")),
      dial_rng_(Rng(seed).fork("fault-dial")),
      proc_rng_(Rng(seed).fork("fault-proc")),
      // The storm's original fork name, so every seeded storm replays.
      storm_rng_(Rng(seed).fork("adversary.storm")) {}

FaultPlan::~FaultPlan() {
  // Kill background timers without reviving nodes (the world is being
  // torn down anyway), then detach from the fabric.
  spike_timer_.cancel();
  reset_timer_.cancel();
  for (auto& timer : crash_timers_) timer.cancel();
  if (installed_) network_.set_fault_injector(nullptr);
}

void FaultPlan::manage_crashes(NodeId node) {
  managed_.push_back(node);
  down_.push_back(false);
  crash_timers_.emplace_back();
  if (armed_ && config_.crashes_per_hour_per_node > 0)
    schedule_crash(managed_.size() - 1);
}

void FaultPlan::add_crash_listener(CrashListener listener) {
  listeners_.push_back(std::move(listener));
}

void FaultPlan::arm() {
  if (armed_) return;
  armed_ = true;
  network_.set_fault_injector(this);
  installed_ = true;
  if (config_.latency_spikes_per_hour > 0) schedule_spike();
  if (config_.connection_resets_per_hour > 0) schedule_reset();
  if (config_.crashes_per_hour_per_node > 0)
    for (std::size_t i = 0; i < managed_.size(); ++i) schedule_crash(i);
  if (config_.churn_storm) schedule_storm();
}

void FaultPlan::disarm() {
  if (!armed_) return;
  armed_ = false;
  spike_timer_.cancel();
  reset_timer_.cancel();
  for (auto& timer : crash_timers_) timer.cancel();
  // Revive crashed nodes so the remaining workload can drain to a stable
  // end state; listeners run their normal restart path.
  for (std::size_t i = 0; i < managed_.size(); ++i) {
    if (!down_[i]) continue;
    down_[i] = false;
    ++counters_.restarts;
    network_.set_online(managed_[i], true);
    notify(managed_[i], true);
  }
}

void FaultPlan::detach() {
  disarm();
  if (installed_) {
    network_.set_fault_injector(nullptr);
    installed_ = false;
  }
}

std::size_t FaultPlan::crashed_count() const {
  return static_cast<std::size_t>(
      std::count(down_.begin(), down_.end(), true));
}

// --------------------------------------------------------------------------
// FaultInjector interface
// --------------------------------------------------------------------------

bool FaultPlan::drop_message(NodeId, NodeId) {
  if (config_.drop_prob <= 0) return false;
  if (!msg_rng_.chance(config_.drop_prob)) return false;
  ++counters_.messages_dropped;
  return true;
}

bool FaultPlan::duplicate_message(NodeId, NodeId) {
  if (config_.duplicate_prob <= 0) return false;
  if (!msg_rng_.chance(config_.duplicate_prob)) return false;
  ++counters_.messages_duplicated;
  return true;
}

Duration FaultPlan::reorder_delay(NodeId, NodeId) {
  if (config_.reorder_prob <= 0) return 0;
  if (!msg_rng_.chance(config_.reorder_prob)) return 0;
  ++counters_.messages_reordered;
  return static_cast<Duration>(msg_rng_.uniform(
      1.0, static_cast<double>(config_.reorder_max_delay)));
}

bool FaultPlan::fail_dial(NodeId, NodeId) {
  if (config_.dial_failure_prob <= 0) return false;
  if (!dial_rng_.chance(config_.dial_failure_prob)) return false;
  ++counters_.dials_failed;
  return true;
}

double FaultPlan::latency_factor(NodeId a, NodeId b) {
  if (spike_until_.empty()) return 1.0;
  const Time now = network_.now();
  // An ended spike is erased when found, so the map empties again and
  // the fast path above comes back once every spike is over.
  const auto spiking = [&](NodeId node) {
    const auto it = spike_until_.find(node);
    if (it == spike_until_.end()) return false;
    if (it->second > now) return true;
    spike_until_.erase(it);
    return false;
  };
  return (spiking(a) || spiking(b)) ? config_.latency_spike_factor : 1.0;
}

// --------------------------------------------------------------------------
// Background processes
// --------------------------------------------------------------------------

void FaultPlan::notify(NodeId node, bool online) {
  for (const auto& listener : listeners_) listener(node, online);
}

void FaultPlan::schedule_spike() {
  spike_timer_ = network_.schedule_daemon_after(
      poisson_wait(proc_rng_, config_.latency_spikes_per_hour), [this] {
        if (!armed_) return;
        const NodeId victim = static_cast<NodeId>(proc_rng_.uniform_int(
            0, static_cast<std::int64_t>(network_.node_count()) - 1));
        spike_until_[victim] =
            network_.now() + config_.latency_spike_duration;
        ++counters_.latency_spikes;
        schedule_spike();
      });
}

void FaultPlan::schedule_reset() {
  reset_timer_ = network_.schedule_daemon_after(
      poisson_wait(proc_rng_, config_.connection_resets_per_hour), [this] {
        if (!armed_) return;
        const NodeId victim = static_cast<NodeId>(proc_rng_.uniform_int(
            0, static_cast<std::int64_t>(network_.node_count()) - 1));
        const auto connections = network_.connections_of(victim);
        if (!connections.empty()) {
          // Pick deterministically among the victim's sorted peers.
          auto sorted = connections;
          std::sort(sorted.begin(), sorted.end());
          const auto pick = static_cast<std::size_t>(proc_rng_.uniform_int(
              0, static_cast<std::int64_t>(sorted.size()) - 1));
          network_.reset_connection(victim, sorted[pick]);
          ++counters_.connection_resets;
        }
        schedule_reset();
      });
}

void FaultPlan::schedule_crash(std::size_t index) {
  crash_timers_[index] = network_.schedule_daemon_after(
      poisson_wait(proc_rng_, config_.crashes_per_hour_per_node),
      [this, index] {
        if (!armed_) return;
        if (!network_.online(managed_[index])) {
          // Already offline for another reason; try again later.
          schedule_crash(index);
          return;
        }
        crash(index, static_cast<Duration>(proc_rng_.uniform(
                         static_cast<double>(config_.min_downtime),
                         static_cast<double>(config_.max_downtime))));
      });
}

void FaultPlan::schedule_storm() {
  const ChurnStormConfig& storm = *config_.churn_storm;
  for (std::size_t i = 0; i < managed_.size(); ++i) {
    if (!storm_rng_.chance(storm.fraction)) continue;
    const Duration crash_at =
        uniform_duration(storm_rng_, storm.start, storm.start + storm.window);
    const Duration downtime =
        uniform_duration(storm_rng_, storm.min_downtime, storm.max_downtime);
    // The storm takes the node's one pending event slot.
    crash_timers_[i].cancel();
    crash_timers_[i] =
        network_.schedule_daemon_after(crash_at, [this, i, downtime] {
          if (network_.online(managed_[i]))
            crash(i, downtime);
          else if (config_.crashes_per_hour_per_node > 0)
            schedule_crash(i);  // down already: skip, keep the cycle
        });
  }
}

void FaultPlan::crash(std::size_t index, Duration downtime) {
  const NodeId node = managed_[index];
  ++counters_.crashes;
  down_[index] = true;
  network_.set_online(node, false);
  notify(node, false);
  crash_timers_[index] = network_.schedule_daemon_after(
      downtime, [this, index] { restart(index); });
}

void FaultPlan::restart(std::size_t index) {
  if (!down_[index]) return;
  down_[index] = false;
  ++counters_.restarts;
  const NodeId node = managed_[index];
  network_.set_online(node, true);
  notify(node, true);
  if (armed_ && config_.crashes_per_hour_per_node > 0) schedule_crash(index);
}

}  // namespace ipfs::sim
