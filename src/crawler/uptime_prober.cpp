#include "crawler/uptime_prober.h"

#include <algorithm>

namespace ipfs::crawler {

UptimeProber::UptimeProber(sim::Network& network, sim::NodeId self)
    : network_(network), self_(self) {}

void UptimeProber::track(const dht::PeerRef& peer) {
  if (finished_) return;
  const auto key = peer.id.encode();
  if (index_by_peer_.contains(key)) return;
  index_by_peer_.emplace(key, tracked_.size());
  tracked_.push_back(Tracked{peer, false, 0, {}});
  probe(tracked_.size() - 1);
}

void UptimeProber::schedule_probe(std::size_t index) {
  if (finished_) return;
  Tracked& entry = tracked_[index];
  sim::Duration interval = kMinProbeInterval;
  if (entry.online) {
    const sim::Duration uptime =
        network_.now() - entry.session_start;
    interval = std::clamp(uptime / 2, kMinProbeInterval, kMaxProbeInterval);
  }
  entry.timer = network_.schedule_daemon_after(
      interval, [this, index] { probe(index); });
}

void UptimeProber::probe(std::size_t index) {
  if (finished_) return;
  ++probes_sent_;
  const sim::NodeId target = tracked_[index].peer.node;
  network_.connect(self_, target, [this, index, target](bool ok,
                                                        sim::Duration) {
    if (ok) {
      network_.disconnect(self_, target);
      on_probe_result(index, true);
      return;
    }
    // One quick retry guards against flaky-dial noise chopping sessions.
    network_.connect(self_, target, [this, index, target](bool retry_ok,
                                                          sim::Duration) {
      if (retry_ok) network_.disconnect(self_, target);
      on_probe_result(index, retry_ok);
    });
  });
}

void UptimeProber::on_probe_result(std::size_t index, bool reachable) {
  if (finished_) return;
  Tracked& entry = tracked_[index];
  const sim::Time now = network_.now();
  if (reachable && !entry.online) {
    entry.online = true;
    entry.session_start = now;
  } else if (!reachable && entry.online) {
    entry.online = false;
    sessions_.push_back(
        SessionRecord{entry.peer, entry.session_start, now, false});
  }
  schedule_probe(index);
}

void UptimeProber::finish() {
  if (finished_) return;
  finished_ = true;
  const sim::Time now = network_.now();
  for (auto& entry : tracked_) {
    entry.timer.cancel();
    if (entry.online) {
      sessions_.push_back(
          SessionRecord{entry.peer, entry.session_start, now, true});
    }
  }
}

}  // namespace ipfs::crawler
