// Discrete-event scheduler driving all simulated IPFS activity.
//
// One event core. Events live in a chunked slab arena of recycled slots
// (stable addresses: an event never moves once scheduled) and are ordered
// by a binary min-heap of 24-byte (when, seq, slot) records, where seq is
// a global insertion counter, so events with equal timestamps run in the
// order they were scheduled. Every seeded output of the repo comes from
// this total order.
//
// Per event, the core stores the callback in place (InlineTask) instead
// of in a std::function, and allocates a shared Timer::State only for
// events scheduled through schedule_*, whose Timer a caller may keep.
// post() events are fire-and-forget and allocate nothing in the steady
// state.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace ipfs::sim {

// Handle for cancelling a scheduled event.
//
// Cancellation semantics (relied on by the fault-injection harness):
//   - cancel() before the event fires guarantees the callback never runs,
//     under run() and run_until() alike.
//   - cancel() after the event fired (or on a default-constructed handle)
//     is a no-op; active() is false in both cases.
//   - Cancelling a foreground event may let run() return earlier, since
//     run() only waits for live non-daemon events.
class Timer {
 public:
  Timer() = default;

  void cancel();
  bool active() const;

 private:
  friend class Simulator;
  struct State {
    bool alive = true;
    bool daemon = false;
    // The owning Simulator's live-foreground-event count, decremented
    // when a non-daemon event is cancelled.
    std::size_t* foreground_pending = nullptr;
  };
  explicit Timer(std::shared_ptr<State> state) : state_(std::move(state)) {}
  std::shared_ptr<State> state_;
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  Timer schedule_at(Time when, std::function<void()> fn);
  Timer schedule_after(Duration delay, std::function<void()> fn);

  // Daemon events (periodic maintenance: record expiry sweeps, churn
  // transitions, republishes) do not keep run() alive: run() returns once
  // only daemon events remain. run_until() executes them normally.
  Timer schedule_daemon_at(Time when, std::function<void()> fn);
  Timer schedule_daemon_after(Duration delay, std::function<void()> fn);

  // Fire-and-forget foreground event: no Timer handle, so no
  // Timer::State. The fabric's hot path (message and dial deliveries).
  template <typename F>
  void post(Duration delay, F&& fn) {
    at(enqueue(now_ + delay, /*daemon=*/false))
        .task.bind(std::forward<F>(fn));
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

  struct Event {
    InlineTask task;
    // Null for post()ed events, which are always foreground.
    std::shared_ptr<Timer::State> state;
  };
  // Heap record: everything the ordering needs without touching the slab.
  struct Item {
    Time when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static constexpr std::size_t kChunkShift = 9;  // 512 events per chunk
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;

  Timer schedule_event(Time when, std::function<void()> fn, bool daemon);
  // Takes a free slot, files it in the heap at `when`, returns its index.
  std::uint32_t enqueue(Time when, bool daemon);
  void release(std::uint32_t slot);
  Event& at(std::uint32_t slot) {
    return slab_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }
  // Pops cancelled entries off the heap top; false once the heap is empty.
  bool has_live_event();
  void execute_next();

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t foreground_pending_ = 0;
  std::vector<Item> heap_;                       // min-heap by (when, seq)
  std::vector<std::unique_ptr<Event[]>> slab_;   // stable-address chunks
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace ipfs::sim
