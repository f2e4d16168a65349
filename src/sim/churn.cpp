#include "sim/churn.h"

namespace ipfs::sim {

namespace {
// Log-space spread of session lengths; offline periods spread less.
constexpr double kSessionSigma = 1.4;
constexpr double kOfflineSigma = kSessionSigma * 0.7;
}  // namespace

ChurnProcess::ChurnProcess(Network& network, std::uint64_t seed)
    : network_(network), rng_(Rng(seed).fork("churn")) {}

void ChurnProcess::manage(NodeId node, double session_median_minutes,
                          double offline_median_minutes) {
  managed_.push_back(
      Managed{node, session_median_minutes, offline_median_minutes});
  schedule_next(managed_.size() - 1, network_.online(node),
                /*stationary_start=*/true);
}

void ChurnProcess::schedule_next(std::size_t index, bool currently_online,
                                 bool stationary_start) {
  const Managed& managed = managed_[index];
  Duration length = minutes(
      currently_online
          ? rng_.lognormal_median(managed.session_median_minutes,
                                  kSessionSigma)
          : rng_.lognormal_median(managed.offline_median_minutes,
                                  kOfflineSigma));
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
  network_.set_online(managed_[index].node, go_online);
  ++transitions_;
  schedule_next(index, go_online, /*stationary_start=*/false);
}

}  // namespace ipfs::sim
