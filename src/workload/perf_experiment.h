// The controlled performance experiment of paper Section 4.3: six IPFS
// nodes in six AWS regions join the (simulated) public network. Each
// iteration, one node publishes a fresh 0.5 MB object; the other five
// retrieve it; then everyone disconnects so the next iteration exercises
// the DHT rather than Bitswap.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "node/ipfs_node.h"
#include "world/world.h"

namespace ipfs::workload {

struct PerfRegion {
  std::string name;  // AWS region label used in the paper's tables
  int region;        // world latency region
};

// The six measurement regions (Table 1).
const std::vector<PerfRegion>& aws_regions();

struct PerfExperimentConfig {
  std::size_t cycles = 60;  // publications, round-robin over regions
  std::size_t object_bytes = 512 * 1024;  // 0.5 MB (Section 4.3)
  bool bitswap_early_exit = false;  // Figure 10b's what-if toggle
  bool parallel_dht_lookup = false;  // Section 6.4's proposed optimization
};

struct PerfResults {
  std::map<std::string, std::vector<node::PublishTrace>> publishes;
  std::map<std::string, std::vector<node::RetrievalTrace>> retrievals;

  std::vector<double> all_publish_totals_seconds() const;
  std::vector<double> all_retrieval_totals_seconds() const;
  std::size_t publish_count() const;
  std::size_t retrieval_count() const;
  std::size_t retrieval_successes() const;
};

class PerfExperiment {
 public:
  PerfExperiment(world::World& world, const PerfExperimentConfig& config);

  // Schedules the whole experiment; `done` fires when the last cycle
  // completes. Drive with world.simulator().run().
  void run(std::function<void()> done);

  const PerfResults& results() const { return results_; }
  node::IpfsNode& node(std::size_t i) { return *nodes_[i]; }
  std::size_t node_count() const { return nodes_.size(); }

 private:
  void bootstrap_nodes(std::size_t index, std::function<void()> done);
  void run_cycle(std::size_t cycle, std::function<void()> done);

  world::World& world_;
  PerfExperimentConfig config_;
  std::vector<std::unique_ptr<node::IpfsNode>> nodes_;
  PerfResults results_;
  sim::Rng content_rng_;
};

}  // namespace ipfs::workload
