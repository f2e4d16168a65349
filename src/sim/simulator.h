// Discrete-event scheduler driving all simulated IPFS activity.
//
// One event core. Events live in a chunked slab arena of recycled slots
// (stable addresses: an event never moves once scheduled) and are ordered
// by a 4-ary min-heap of 24-byte (when, seq, slot) records, where seq is
// a global insertion counter, so events with equal timestamps run in the
// order they were scheduled. Every seeded output of the repo comes from
// this total order.
//
// Scheduling allocates nothing in the steady state: the callback is bound
// in place into its slot (InlineTask), and the returned Timer is a plain
// (simulator, slot, seq) handle that a caller may keep or drop.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace ipfs::sim {

class Simulator;

// Handle for cancelling a scheduled event: the event's slot and seq in
// its Simulator. A slot's seq is cleared when its event fires or is
// cancelled, and seqs are never reused, so a stale handle never reaches
// the slot's next event.
//
// Cancellation semantics (relied on by the fault-injection harness):
//   - cancel() before the event fires guarantees the callback never runs,
//     under run() and run_until() alike.
//   - cancel() after the event fired (or on a default-constructed handle)
//     is a no-op; active() is false in both cases, including inside the
//     event's own callback.
//   - Cancelling a foreground event may let run() return earlier, since
//     run() only waits for live non-daemon events.
// cancel() and active() read the Simulator, so a handle must not be used
// once its Simulator is destroyed.
class Timer {
 public:
  Timer() = default;

  void cancel();
  bool active() const;

 private:
  friend class Simulator;
  Timer(Simulator* simulator, std::uint32_t slot, std::uint64_t seq)
      : simulator_(simulator), slot_(slot), seq_(seq) {}

  Simulator* simulator_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t seq_ = 0;
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  // Each schedule_* binds `fn` (any void() callable) in place into the
  // event's slot. Callers that never cancel simply drop the Timer.
  template <typename F>
  Timer schedule_at(Time when, F&& fn) {
    return schedule(when, /*daemon=*/false, std::forward<F>(fn));
  }
  template <typename F>
  Timer schedule_after(Duration delay, F&& fn) {
    return schedule(now_ + delay, /*daemon=*/false, std::forward<F>(fn));
  }

  // Daemon events (periodic maintenance: record expiry sweeps, churn
  // transitions, republishes) do not keep run() alive: run() returns once
  // only daemon events remain. run_until() executes them normally.
  template <typename F>
  Timer schedule_daemon_at(Time when, F&& fn) {
    return schedule(when, /*daemon=*/true, std::forward<F>(fn));
  }
  template <typename F>
  Timer schedule_daemon_after(Duration delay, F&& fn) {
    return schedule(now_ + delay, /*daemon=*/true, std::forward<F>(fn));
  }

  // Runs until no live non-daemon event remains. Returns events executed.
  std::uint64_t run();

  // Runs every event (daemons included) up to `deadline` inclusive, then
  // advances the clock to it.
  std::uint64_t run_until(Time deadline);

  // Due time of the earliest live event, daemons included; -1 when none
  // is queued. Prunes cancelled entries off the heap top.
  Time next_event_time();

  // Queued entries, including cancelled ones not yet lazily pruned.
  std::size_t pending_events() const { return heap_.size(); }

  // Live (non-cancelled) non-daemon events still queued. Zero after a
  // drained run(); the fuzz harness checks this to detect leaked events.
  std::size_t foreground_pending() const { return foreground_pending_; }

 private:
  friend class Timer;

  // Move-free callable with in-place storage. Events never move once
  // slotted, so only invoke and destroy are needed. Captures larger than
  // the buffer fall back to one heap allocation.
  class InlineTask {
   public:
    static constexpr std::size_t kInlineBytes = 80;

    InlineTask() = default;
    InlineTask(const InlineTask&) = delete;
    InlineTask& operator=(const InlineTask&) = delete;
    ~InlineTask() { reset(); }

    template <typename F>
    void bind(F&& fn) {
      reset();
      using Fn = std::decay_t<F>;
      if constexpr (sizeof(Fn) <= kInlineBytes &&
                    alignof(Fn) <= alignof(std::max_align_t)) {
        ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(fn));
        invoke_ = [](void* p) { (*std::launder(static_cast<Fn*>(p)))(); };
        destroy_ = [](void* p) { std::launder(static_cast<Fn*>(p))->~Fn(); };
      } else {
        ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(fn)));
        invoke_ = [](void* p) { (**std::launder(static_cast<Fn**>(p)))(); };
        destroy_ = [](void* p) { delete *std::launder(static_cast<Fn**>(p)); };
      }
    }

    void operator()() { invoke_(buf_); }

    void reset() {
      if (destroy_ != nullptr) destroy_(buf_);
      invoke_ = nullptr;
      destroy_ = nullptr;
    }

   private:
    void (*invoke_)(void*) = nullptr;
    void (*destroy_)(void*) = nullptr;
    alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  };

  // The seq of a slot whose event has fired or been cancelled.
  static constexpr std::uint64_t kNoEvent =
      std::numeric_limits<std::uint64_t>::max();

  struct Event {
    InlineTask task;
    // The queued event's seq while it is live, kNoEvent otherwise.
    std::uint64_t seq = kNoEvent;
    bool daemon = false;
  };
  // Heap record: everything the ordering needs without touching the slab.
  struct Item {
    Time when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static constexpr std::size_t kHeapArity = 4;   // children 4i+1 .. 4i+4
  static constexpr std::size_t kChunkShift = 9;  // 512 events per chunk
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;

  template <typename F>
  Timer schedule(Time when, bool daemon, F&& fn) {
    const std::uint32_t slot = enqueue(when, daemon);
    Event& event = at(slot);
    event.task.bind(std::forward<F>(fn));
    return Timer(this, slot, event.seq);
  }
  // Takes a free slot, files it in the heap at `when`, returns its index.
  std::uint32_t enqueue(Time when, bool daemon);
  void cancel(std::uint32_t slot, std::uint64_t seq);
  bool live(std::uint32_t slot, std::uint64_t seq) const {
    return at(slot).seq == seq;
  }
  Event& at(std::uint32_t slot) {
    return slab_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }
  const Event& at(std::uint32_t slot) const {
    return slab_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }
  void heap_push(Item item);
  void heap_pop();  // removes the top record
  // Drops the slot's callback and returns the slot to the free list. Only
  // done once the slot's heap record is popped.
  void release(std::uint32_t slot);
  // Pops cancelled entries off the heap top; false once the heap is empty.
  bool has_live_event();
  void execute_next();

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t foreground_pending_ = 0;
  std::vector<Item> heap_;                      // 4-ary min-heap, (when, seq)
  std::vector<std::unique_ptr<Event[]>> slab_;  // stable-address chunks
  std::vector<std::uint32_t> free_slots_;
};

inline void Timer::cancel() {
  if (simulator_ != nullptr) simulator_->cancel(slot_, seq_);
}

inline bool Timer::active() const {
  return simulator_ != nullptr && simulator_->live(slot_, seq_);
}

}  // namespace ipfs::sim
