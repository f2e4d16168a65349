#include "sim/simulator.h"

#include <algorithm>
#include <limits>

namespace ipfs::sim {

namespace {

// The heap's order: (when, seq) is a strict total order, because seq is
// unique, so every heap shape pops the same event next.
template <typename Item>
bool before(const Item& a, const Item& b) {
  if (a.when != b.when) return a.when < b.when;
  return a.seq < b.seq;
}

}  // namespace

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
  const std::uint64_t seq = next_seq_++;
  Event& event = at(slot);
  event.seq = seq;
  event.daemon = daemon;
  heap_push(Item{when, seq, slot});
  return slot;
}

void Simulator::cancel(std::uint32_t slot, std::uint64_t seq) {
  Event& event = at(slot);
  if (event.seq != seq) return;  // fired, cancelled, or a stale handle
  event.seq = kNoEvent;
  if (!event.daemon) --foreground_pending_;
}

void Simulator::heap_push(Item item) {
  std::size_t hole = heap_.size();
  heap_.push_back(item);
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kHeapArity;
    if (!before(item, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = item;
}

void Simulator::heap_pop() {
  const Item last = heap_.back();
  heap_.pop_back();
  const std::size_t size = heap_.size();
  if (size == 0) return;
  // Sift the hole left at the top down to where `last` belongs.
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = kHeapArity * hole + 1;
    if (first >= size) break;
    const std::size_t end = std::min(first + kHeapArity, size);
    std::size_t child = first;
    for (std::size_t c = first + 1; c < end; ++c)
      if (before(heap_[c], heap_[child])) child = c;
    if (!before(heap_[child], last)) break;
    heap_[hole] = heap_[child];
    hole = child;
  }
  heap_[hole] = last;
}

void Simulator::release(std::uint32_t slot) {
  at(slot).task.reset();
  free_slots_.push_back(slot);
}

bool Simulator::has_live_event() {
  while (!heap_.empty()) {
    const Item& top = heap_.front();
    if (live(top.slot, top.seq)) return true;
    const std::uint32_t slot = top.slot;
    heap_pop();
    release(slot);  // cancelled: prune lazily
  }
  return false;
}

Time Simulator::next_event_time() {
  return has_live_event() ? heap_.front().when : -1;
}

void Simulator::execute_next() {
  const Item top = heap_.front();
  heap_pop();
  Event& event = at(top.slot);
  event.seq = kNoEvent;  // consumed: active() is false from here on
  if (!event.daemon) --foreground_pending_;
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
