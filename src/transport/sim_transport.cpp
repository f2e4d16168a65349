#include "transport/sim_transport.h"

namespace ipfs::transport {

namespace {

// Adapts the scheduler's native handle to the backend-agnostic one.
struct SimTimerImpl final : Timer::Impl {
  explicit SimTimerImpl(sim::Timer timer) : timer(std::move(timer)) {}
  void cancel() override { timer.cancel(); }
  bool active() const override { return timer.active(); }
  sim::Timer timer;
};

Timer wrap(sim::Timer timer) {
  return Timer(std::make_shared<SimTimerImpl>(std::move(timer)));
}

}  // namespace

Timer SimTransport::schedule_after(sim::Duration delay,
                                   std::function<void()> fn) {
  return wrap(network_.schedule_after(delay, std::move(fn)));
}

Timer SimTransport::schedule_daemon_after(sim::Duration delay,
                                          std::function<void()> fn) {
  return wrap(network_.schedule_daemon_after(delay, std::move(fn)));
}

Timer SimTransport::schedule_daemon_at(sim::Time when,
                                       std::function<void()> fn) {
  return wrap(network_.schedule_daemon_at(when, std::move(fn)));
}

}  // namespace ipfs::transport
