#include "sim/simulator.h"

#include <algorithm>
#include <limits>

namespace ipfs::sim {

namespace {

// Min-heap comparator over (when, seq): std::push_heap et al. build a
// max-heap, so "after" inverts the order.
struct After {
  template <typename Item>
  bool operator()(const Item& a, const Item& b) const {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }
};

}  // namespace

void Timer::cancel() {
  if (!state_ || !state_->alive) return;
  state_->alive = false;
  if (!state_->daemon && state_->foreground_pending != nullptr)
    --*state_->foreground_pending;
}

bool Timer::active() const { return state_ && state_->alive; }

std::uint32_t Simulator::enqueue(Time when, bool daemon) {
  assert(when >= now_ && "cannot schedule into the past");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slab_.size() * kChunkSize);
    slab_.push_back(std::make_unique<Event[]>(kChunkSize));
    // Hand out the rest of the fresh chunk through the free list.
    for (std::uint32_t i = static_cast<std::uint32_t>(kChunkSize) - 1; i >= 1;
         --i)
      free_slots_.push_back(slot + i);
  }
  if (!daemon) ++foreground_pending_;
  heap_.push_back(Item{when, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), After{});
  return slot;
}

void Simulator::release(std::uint32_t slot) {
  Event& event = at(slot);
  event.task.reset();
  event.state.reset();
  free_slots_.push_back(slot);
}

Timer Simulator::schedule_event(Time when, std::function<void()> fn,
                                bool daemon) {
  auto state = std::make_shared<Timer::State>();
  state->daemon = daemon;
  state->foreground_pending = &foreground_pending_;
  Event& event = at(enqueue(when, daemon));
  event.state = state;
  event.task.bind(std::move(fn));
  return Timer(std::move(state));
}

Timer Simulator::schedule_at(Time when, std::function<void()> fn) {
  return schedule_event(when, std::move(fn), /*daemon=*/false);
}

Timer Simulator::schedule_after(Duration delay, std::function<void()> fn) {
  return schedule_event(now_ + delay, std::move(fn), /*daemon=*/false);
}

Timer Simulator::schedule_daemon_at(Time when, std::function<void()> fn) {
  return schedule_event(when, std::move(fn), /*daemon=*/true);
}

Timer Simulator::schedule_daemon_after(Duration delay,
                                       std::function<void()> fn) {
  return schedule_event(now_ + delay, std::move(fn), /*daemon=*/true);
}

bool Simulator::has_live_event() {
  while (!heap_.empty()) {
    const Event& head = at(heap_.front().slot);
    if (head.state == nullptr || head.state->alive) return true;
    const std::uint32_t slot = heap_.front().slot;
    std::pop_heap(heap_.begin(), heap_.end(), After{});
    heap_.pop_back();
    release(slot);  // cancelled: prune lazily
  }
  return false;
}

Time Simulator::next_event_time() {
  return has_live_event() ? heap_.front().when : -1;
}

void Simulator::execute_next() {
  const Item top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), After{});
  heap_.pop_back();
  Event& event = at(top.slot);
  if (event.state == nullptr) {
    --foreground_pending_;
  } else {
    event.state->alive = false;  // consumed
    if (!event.state->daemon) --foreground_pending_;
  }
  now_ = top.when;
  event.task();
  // Release the slot only after the callback returns. The slab's chunks
  // have stable addresses, so callbacks scheduling new events cannot
  // invalidate `event` mid-call.
  release(top.slot);
}

std::uint64_t Simulator::run() {
  std::uint64_t executed = 0;
  while (foreground_pending_ > 0 && has_live_event()) {
    execute_next();
    ++executed;
  }
  return executed;
}

std::uint64_t Simulator::run_until(Time deadline) {
  std::uint64_t executed = 0;
  // has_live_event() prunes cancelled entries first, so a cancelled entry
  // at t <= deadline never unmasks a live event past the deadline.
  while (has_live_event() && heap_.front().when <= deadline) {
    execute_next();
    ++executed;
  }
  if (now_ < deadline && deadline != std::numeric_limits<Time>::max())
    now_ = deadline;
  return executed;
}

}  // namespace ipfs::sim
