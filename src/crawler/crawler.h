// The DHT crawler (paper Section 4.1): starting from the bootstrap
// peers, recursively asks every reachable DHT server for the entries in
// its k-buckets until no new peers appear, recording reachability,
// addresses and timing per peer.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "dht/dht_node.h"
#include "sim/network.h"

namespace ipfs::crawler {

struct PeerObservation {
  dht::PeerRef peer;
  bool reached = false;             // connected AND answered the crawl RPC
  sim::Duration connect_duration = 0;
  sim::Duration crawl_duration = 0;  // RPC round trip after connecting
};

struct CrawlResult {
  sim::Time started_at = 0;
  sim::Time finished_at = 0;
  std::vector<PeerObservation> observations;

  std::size_t total() const { return observations.size(); }
  std::size_t dialable() const;
  std::size_t undialable() const { return total() - dialable(); }
  std::size_t unique_ip_count() const;
  std::size_t multiaddress_count() const;
};

class Crawler {
 public:
  // The crawler participates as a plain (client) node of the network.
  Crawler(sim::Network& network, sim::NodeId self,
          std::vector<dht::PeerRef> bootstrap, int concurrency = 16);

  // One full crawl round. `done` receives every discovered peer.
  void crawl(std::function<void(CrawlResult)> done);

 private:
  struct Run;

  sim::Network& network_;
  sim::NodeId self_;
  std::vector<dht::PeerRef> bootstrap_;
  int concurrency_;
};

// Extracts the textual IPv4 addresses of a peer's multiaddrs.
std::vector<std::string> extract_ips(const dht::PeerRef& peer);

}  // namespace ipfs::crawler
