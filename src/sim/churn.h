// Churn process: drives nodes through online/offline session cycles
// (paper Section 5.3). Session lengths are drawn per node from pluggable
// distributions, typically log-normal with a per-region median (Figure 8).
#pragma once

#include <functional>
#include <vector>

#include "sim/network.h"
#include "sim/rng.h"

namespace ipfs::sim {

class ChurnProcess {
 public:
  using DurationSampler = std::function<Duration(Rng&)>;
  // Notified after the network state has been updated.
  using Listener = std::function<void(NodeId, bool online)>;

  ChurnProcess(Network& network, std::uint64_t seed);

  // Puts `node` under churn management. The node starts in its current
  // network state; the first transition is scheduled from a uniformly
  // random point of the first session (stationary start).
  void manage(NodeId node, DurationSampler session_length,
              DurationSampler offline_length);

  void add_listener(Listener listener);

  std::uint64_t transitions() const { return transitions_; }

 private:
  struct Managed {
    NodeId node;
    DurationSampler session_length;
    DurationSampler offline_length;
  };

  void schedule_next(std::size_t index, bool currently_online,
                     bool stationary_start);
  void transition(std::size_t index, bool go_online);

  Network& network_;
  Rng rng_;
  std::vector<Managed> managed_;
  std::vector<Listener> listeners_;
  std::uint64_t transitions_ = 0;
};

}  // namespace ipfs::sim
