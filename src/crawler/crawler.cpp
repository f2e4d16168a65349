#include "crawler/crawler.h"

#include <deque>
#include <memory>

#include "dht/messages.h"

namespace ipfs::crawler {

std::vector<std::string> extract_ips(const dht::PeerRef& peer) {
  std::vector<std::string> out;
  for (const auto& address : peer.addresses) {
    const auto ip = address.value_for(multiformats::MultiaddrProtocol::kIp4);
    if (!ip) continue;
    out.push_back(std::to_string((*ip)[0]) + "." + std::to_string((*ip)[1]) +
                  "." + std::to_string((*ip)[2]) + "." +
                  std::to_string((*ip)[3]));
  }
  return out;
}

std::size_t CrawlResult::dialable() const {
  std::size_t count = 0;
  for (const auto& obs : observations)
    if (obs.reached) ++count;
  return count;
}

std::size_t CrawlResult::unique_ip_count() const {
  std::unordered_set<std::string> ips;
  for (const auto& obs : observations)
    for (auto& ip : extract_ips(obs.peer)) ips.insert(std::move(ip));
  return ips.size();
}

std::size_t CrawlResult::multiaddress_count() const {
  std::size_t count = 0;
  for (const auto& obs : observations) count += obs.peer.addresses.size();
  return count;
}

// Shared state of one crawl round.
struct Crawler::Run : std::enable_shared_from_this<Crawler::Run> {
  sim::Network* network = nullptr;
  sim::NodeId self = sim::kInvalidNode;
  int concurrency = 16;
  std::function<void(CrawlResult)> done;

  std::deque<dht::PeerRef> frontier;
  // Visited set keyed by the dense sim NodeId (unique per peer), as a
  // bitmap over the id space. The crawl graph hands us every peer ~64
  // times (once per routing table listing it), so this dedup runs
  // millions of times per census — encoding PeerIDs into a string set
  // here used to dominate the whole event phase.
  std::vector<std::uint8_t> seen;
  CrawlResult result;
  int in_flight = 0;
  bool finished = false;

  void enqueue(const dht::PeerRef& peer) {
    if (peer.node == self) return;
    if (peer.node >= seen.size()) seen.resize(peer.node + 1, 0);
    if (seen[peer.node] != 0) return;
    seen[peer.node] = 1;
    frontier.push_back(peer);
  }

  void pump() {
    if (finished) return;
    while (in_flight < concurrency && !frontier.empty()) {
      dht::PeerRef next = frontier.front();
      frontier.pop_front();
      visit(std::move(next));
    }
    if (in_flight == 0 && frontier.empty()) {
      finished = true;
      result.finished_at = network->now();
      done(std::move(result));
    }
  }

  void visit(dht::PeerRef peer) {
    ++in_flight;
    auto self_ptr = shared_from_this();
    const sim::Time connect_start = network->now();
    network->connect(
        self, peer.node,
        [self_ptr, peer, connect_start](bool ok, sim::Duration elapsed) {
          if (!ok) {
            PeerObservation obs;
            obs.peer = peer;
            obs.reached = false;
            obs.connect_duration = elapsed;
            self_ptr->result.observations.push_back(std::move(obs));
            --self_ptr->in_flight;
            self_ptr->pump();
            return;
          }
          const sim::Time rpc_start = self_ptr->network->now();
          self_ptr->network->request(
              self_ptr->self, peer.node,
              std::make_shared<dht::ListBucketsRequest>(),
              dht::kRequestBaseBytes, sim::seconds(10),
              [self_ptr, peer, connect_start, rpc_start](
                  sim::RpcStatus status, const sim::MessagePtr& message) {
                PeerObservation obs;
                obs.peer = peer;
                obs.connect_duration =
                    rpc_start - connect_start;
                obs.crawl_duration =
                    self_ptr->network->now() - rpc_start;
                if (status == sim::RpcStatus::kOk) {
                  obs.reached = true;
                  if (message->kind() ==
                      sim::MessageKind::kListBucketsResponse) {
                    const auto* buckets =
                        static_cast<const dht::ListBucketsResponse*>(
                            message.get());
                    for (const auto& entry : buckets->peers)
                      self_ptr->enqueue(entry);
                  }
                }
                self_ptr->result.observations.push_back(std::move(obs));
                // Keep the crawler's connection count bounded.
                self_ptr->network->disconnect(self_ptr->self, peer.node);
                --self_ptr->in_flight;
                self_ptr->pump();
              });
        });
  }
};

Crawler::Crawler(sim::Network& network, sim::NodeId self,
                 std::vector<dht::PeerRef> bootstrap, int concurrency)
    : network_(network),
      self_(self),
      bootstrap_(std::move(bootstrap)),
      concurrency_(concurrency) {}

void Crawler::crawl(std::function<void(CrawlResult)> done) {
  auto run = std::make_shared<Run>();
  run->network = &network_;
  run->self = self_;
  run->concurrency = concurrency_;
  run->done = std::move(done);
  run->result.started_at = network_.now();
  for (const auto& peer : bootstrap_) run->enqueue(peer);
  run->pump();
}

}  // namespace ipfs::crawler
