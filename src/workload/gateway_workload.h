// Gateway request workload (paper Sections 4.2, 6.3): synthetic client
// traffic calibrated to the published aggregates of the ipfs.io gateway
// log — diurnal double-peak arrival rate (Figure 4b), Zipf content
// popularity, log-normal object sizes (Figure 11a) and the user-country
// mix of Figure 6.
#pragma once

#include <functional>
#include <vector>

#include "gateway/gateway.h"
#include "sim/rng.h"

namespace ipfs::gateway {
class GatewayFleet;
}

namespace ipfs::workload {

struct GatewayWorkloadConfig {
  std::size_t catalog_size = 300;
  // Fraction of catalog objects pinned in the gateway's node store (the
  // Web3/NFT Storage content, Section 3.4).
  double pinned_share = 0.58;
  // Object size distribution (Figure 11a: median 664.59 kB).
  double size_median_bytes = 600.0 * 1024;
  std::uint64_t size_cap_bytes = 4ull * 1024 * 1024;
  // Arrival process.
  std::uint64_t requests_total = 20000;
  sim::Duration duration = sim::hours(24);
};

struct RequestLogEntry {
  sim::Time timestamp = 0;
  int user_country = 0;  // index into world::countries()
  std::size_t catalog_rank = 0;
  gateway::ServedFrom source = gateway::ServedFrom::kFailed;
  sim::Duration latency = 0;
  std::uint64_t bytes = 0;
};

struct CatalogObject {
  multiformats::Cid cid;
  std::uint64_t size = 0;
  bool pinned = false;
  std::size_t host = 0;  // index of the content host serving it
};

// Drives one simulated day of traffic against a gateway whose catalog is
// hosted by `hosts` (provider nodes that have published the objects).
class GatewayWorkload {
 public:
  GatewayWorkload(const GatewayWorkloadConfig& config, sim::Rng rng);

  // Generates the catalog contents deterministically; returns the bytes
  // of object `rank` so hosts and the gateway can import them.
  std::vector<std::uint8_t> object_bytes(std::size_t rank) const;

  const GatewayWorkloadConfig& config() const { return config_; }
  std::vector<CatalogObject>& catalog() { return catalog_; }

  // Instantaneous arrival rate multiplier at `t` (diurnal pattern).
  double rate_multiplier(sim::Time t) const;

  // Schedules all requests onto the simulator, invoking the gateway per
  // request and appending to the log. Call simulator().run_until(end).
  void run(gateway::Gateway& gateway);
  // Same traffic through a fleet front end (consistent-hash routing).
  void run(gateway::GatewayFleet& fleet);

  const std::vector<RequestLogEntry>& log() const { return log_; }

 private:
  // Any request sink: a standalone gateway or a fleet front end. The
  // arrival process and the log are identical either way, so arms of an
  // ablation see the same request sequence.
  using RequestFn = std::function<void(
      const multiformats::Cid&, std::function<void(gateway::GatewayResponse)>)>;

  void run_with(transport::Transport& transport, RequestFn request);
  void schedule_next(std::uint64_t issued);
  std::size_t pick_rank();
  int pick_country();

  GatewayWorkloadConfig config_;
  sim::Rng rng_;
  std::vector<CatalogObject> catalog_;
  std::vector<double> country_weights_;
  std::vector<RequestLogEntry> log_;
  transport::Transport* transport_ = nullptr;
  RequestFn request_;
};

}  // namespace ipfs::workload
