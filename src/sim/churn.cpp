#include "sim/churn.h"

namespace ipfs::sim {

ChurnProcess::ChurnProcess(Network& network, std::uint64_t seed)
    : network_(network), rng_(Rng(seed).fork("churn")) {}

void ChurnProcess::manage(NodeId node, DurationSampler session_length,
                          DurationSampler offline_length) {
  managed_.push_back(
      Managed{node, std::move(session_length), std::move(offline_length)});
  schedule_next(managed_.size() - 1, network_.online(node),
                /*stationary_start=*/true);
}

void ChurnProcess::add_listener(Listener listener) {
  listeners_.push_back(std::move(listener));
}

void ChurnProcess::schedule_next(std::size_t index, bool currently_online,
                                 bool stationary_start) {
  const Managed& managed = managed_[index];
  Duration length = currently_online ? managed.session_length(rng_)
                                     : managed.offline_length(rng_);
  if (length < seconds(1)) length = seconds(1);
  if (stationary_start) {
    // Start mid-session so the population is in steady state from t=0.
    length = static_cast<Duration>(static_cast<double>(length) *
                                   rng_.uniform());
    if (length < seconds(1)) length = seconds(1);
  }
  network_.schedule_daemon_after(length, [this, index, currently_online] {
    transition(index, !currently_online);
  });
}

void ChurnProcess::transition(std::size_t index, bool go_online) {
  const Managed& managed = managed_[index];
  network_.set_online(managed.node, go_online);
  ++transitions_;
  for (const auto& listener : listeners_) listener(managed.node, go_online);
  schedule_next(index, go_online, /*stationary_start=*/false);
}

}  // namespace ipfs::sim
