// Churn process: drives nodes through online/offline session cycles
// (paper Section 5.3). Each node's session and offline lengths are
// log-normal around its own medians (Figure 8 gives the per-region
// session medians).
#pragma once

#include <vector>

#include "sim/network.h"
#include "sim/rng.h"

namespace ipfs::sim {

class ChurnProcess {
 public:
  ChurnProcess(Network& network, std::uint64_t seed);

  // Puts `node` under churn management. The node starts in its current
  // network state; the first transition is scheduled from a uniformly
  // random point of the first session (stationary start).
  void manage(NodeId node, double session_median_minutes,
              double offline_median_minutes);

  std::uint64_t transitions() const { return transitions_; }

 private:
  struct Managed {
    NodeId node;
    double session_median_minutes;
    double offline_median_minutes;
  };

  void schedule_next(std::size_t index, bool currently_online,
                     bool stationary_start);
  void transition(std::size_t index, bool go_online);

  Network& network_;
  Rng rng_;
  std::vector<Managed> managed_;
  std::uint64_t transitions_ = 0;
};

}  // namespace ipfs::sim
