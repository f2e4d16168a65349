#include "workload/perf_experiment.h"

#include "world/geography.h"

namespace ipfs::workload {
namespace {

// Pause after a cycle's last retrieval (or its failed publication)
// before the next publication starts.
constexpr sim::Duration kGapBetweenCycles = sim::seconds(20);

}  // namespace

const std::vector<PerfRegion>& aws_regions() {
  static const std::vector<PerfRegion> kRegions = {
      {"af_south_1", world::kAfSouth},     {"ap_southeast_2", world::kApSoutheast},
      {"eu_central_1", world::kEuCentral}, {"me_south_1", world::kMeSouth},
      {"sa_east_1", world::kSaEast},       {"us_west_1", world::kUsWest},
  };
  return kRegions;
}

std::vector<double> PerfResults::all_publish_totals_seconds() const {
  std::vector<double> out;
  for (const auto& [region, traces] : publishes)
    for (const auto& trace : traces) out.push_back(sim::to_seconds(trace.total));
  return out;
}

std::vector<double> PerfResults::all_retrieval_totals_seconds() const {
  std::vector<double> out;
  for (const auto& [region, traces] : retrievals)
    for (const auto& trace : traces)
      if (trace.ok) out.push_back(sim::to_seconds(trace.total));
  return out;
}

std::size_t PerfResults::publish_count() const {
  std::size_t count = 0;
  for (const auto& [region, traces] : publishes) count += traces.size();
  return count;
}

std::size_t PerfResults::retrieval_count() const {
  std::size_t count = 0;
  for (const auto& [region, traces] : retrievals) count += traces.size();
  return count;
}

std::size_t PerfResults::retrieval_successes() const {
  std::size_t count = 0;
  for (const auto& [region, traces] : retrievals)
    for (const auto& trace : traces)
      if (trace.ok) ++count;
  return count;
}

PerfExperiment::PerfExperiment(world::World& world,
                               const PerfExperimentConfig& config)
    : world_(world),
      config_(config),
      content_rng_(sim::Rng(world.config().seed).fork("perf-content")) {
  // One t2.small-equivalent node per region: dialable, TCP, modest
  // bandwidth (the AWS instances of Section 4.3).
  for (std::size_t i = 0; i < aws_regions().size(); ++i) {
    node::IpfsNodeConfig node_config;
    node_config.net.region = aws_regions()[i].region;
    node_config.net.dialable = true;
    node_config.net.transport = sim::Transport::kTcp;
    node_config.net.upload_bytes_per_sec = 30.0 * 1024 * 1024;
    node_config.net.download_bytes_per_sec = 60.0 * 1024 * 1024;
    // Small watermarks relative to the simulated swarm so lookup
    // connections get trimmed like go-ipfs's connection manager trims
    // them on the real network.
    node_config.conn_manager = {.low_water = 8, .high_water = 24};
    node_config.identity_seed = 0xAE50000 + i;
    node_config.provide_after_fetch = false;  // keep iterations independent
    node_config.bitswap_early_exit = config.bitswap_early_exit;
    node_config.parallel_dht_lookup = config.parallel_dht_lookup;
    nodes_.push_back(
        std::make_unique<node::IpfsNode>(world_.network(), node_config));
  }
}

void PerfExperiment::bootstrap_nodes(std::size_t index,
                                     std::function<void()> done) {
  if (index >= nodes_.size()) {
    done();
    return;
  }
  nodes_[index]->bootstrap(world_.bootstrap_refs(),
                           [this, index, done = std::move(done)](bool) {
                             bootstrap_nodes(index + 1, std::move(done));
                           });
}

void PerfExperiment::run(std::function<void()> done) {
  bootstrap_nodes(0, [this, done = std::move(done)] {
    run_cycle(0, std::move(done));
  });
}

void PerfExperiment::run_cycle(std::size_t cycle, std::function<void()> done) {
  if (cycle >= config_.cycles) {
    done();
    return;
  }

  const std::size_t publisher = cycle % nodes_.size();
  const std::string& publisher_region = aws_regions()[publisher].name;

  // Fresh 0.5 MB object every iteration (Section 4.3).
  std::vector<std::uint8_t> content(config_.object_bytes);
  for (std::size_t i = 0; i + 8 <= content.size(); i += 8) {
    const std::uint64_t word = content_rng_.next();
    for (int b = 0; b < 8; ++b)
      content[i + b] = static_cast<std::uint8_t>(word >> (8 * b));
  }

  nodes_[publisher]->publish(
      content,
      [this, cycle, publisher, publisher_region,
       done = std::move(done)](node::PublishTrace publish_trace) {
        results_.publishes[publisher_region].push_back(publish_trace);
        if (!publish_trace.ok) {
          // Nothing to retrieve; move on.
          world_.network().schedule_after(
              kGapBetweenCycles,
              [this, cycle, done = std::move(done)] {
                run_cycle(cycle + 1, std::move(done));
              });
          return;
        }

        // All other nodes retrieve the object concurrently.
        auto remaining = std::make_shared<int>(
            static_cast<int>(nodes_.size()) - 1);
        for (std::size_t i = 0; i < nodes_.size(); ++i) {
          if (i == publisher) continue;
          const std::string& region = aws_regions()[i].name;
          nodes_[i]->retrieve(
              publish_trace.cid,
              [this, cycle, region, remaining,
               done](node::RetrievalTrace trace) {
                results_.retrievals[region].push_back(trace);
                if (--*remaining > 0) return;
                // Iteration complete: the controlled nodes disconnect
                // from each other so the next retrieval resolves through
                // the DHT rather than Bitswap (Section 4.3); ambient DHT
                // connections persist, as on the live network.
                for (auto& a : nodes_) {
                  a->forget_peer_addresses();
                  for (auto& b : nodes_) {
                    if (a != b) a->disconnect_from(b->node());
                  }
                }
                world_.network().schedule_after(
                    kGapBetweenCycles, [this, cycle, done] {
                      run_cycle(cycle + 1, done);
                    });
              });
        }
      });
}

}  // namespace ipfs::workload
