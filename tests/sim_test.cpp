// Simulator substrate tests: event ordering, cancellation, RNG streams,
// network dial/RPC semantics including transport timeouts, and churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/churn.h"
#include "sim/faults.h"
#include "sim/network.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace ipfs::sim {
namespace {

// --------------------------------------------------------------------------
// Simulator
// --------------------------------------------------------------------------

TEST(SimulatorTest, ExecutesEventsInTimeOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.schedule_after(seconds(3), [&] { order.push_back(3); });
  simulator.schedule_after(seconds(1), [&] { order.push_back(1); });
  simulator.schedule_after(seconds(2), [&] { order.push_back(2); });
  simulator.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(simulator.now(), seconds(3));
}

TEST(SimulatorTest, EqualTimestampsRunFifo) {
  Simulator simulator;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    simulator.schedule_after(seconds(1), [&order, i] { order.push_back(i); });
  simulator.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, CancelledEventsDoNotFire) {
  Simulator simulator;
  bool fired = false;
  Timer timer = simulator.schedule_after(seconds(1), [&] { fired = true; });
  timer.cancel();
  simulator.run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator simulator;
  int count = 0;
  simulator.schedule_after(seconds(1), [&] { ++count; });
  simulator.schedule_after(seconds(10), [&] { ++count; });
  const auto executed = simulator.run_until(seconds(5));
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(simulator.now(), seconds(5));
  simulator.run();
  EXPECT_EQ(count, 2);
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator simulator;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) simulator.schedule_after(seconds(1), recurse);
  };
  simulator.schedule_after(seconds(1), recurse);
  simulator.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(simulator.now(), seconds(10));
}

// --------------------------------------------------------------------------
// Timer cancellation semantics (documented on sim::Timer): a cancel()
// before the fire time guarantees the callback never runs, under run()
// and run_until() alike; cancelling after the fire is a no-op.
// --------------------------------------------------------------------------

TEST(SimulatorTest, CancelledEventDoesNotUnmaskLaterEventsInRunUntil) {
  // Regression: a cancelled event at t <= deadline used to satisfy the
  // deadline check, letting run_until() skip past it and execute a live
  // event *beyond* the deadline.
  Simulator simulator;
  bool late_fired = false;
  Timer cancelled = simulator.schedule_after(seconds(1), [] { FAIL(); });
  simulator.schedule_after(seconds(10), [&] { late_fired = true; });
  cancelled.cancel();
  const auto executed = simulator.run_until(seconds(5));
  EXPECT_EQ(executed, 0u);
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(simulator.now(), seconds(5));
  simulator.run();
  EXPECT_TRUE(late_fired);
}

TEST(SimulatorTest, CancelAfterFireIsANoOp) {
  Simulator simulator;
  int fired = 0;
  Timer timer = simulator.schedule_after(seconds(1), [&] { ++fired; });
  EXPECT_TRUE(timer.active());
  simulator.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(timer.active());
  timer.cancel();  // must not crash or affect anything
  simulator.run();
  EXPECT_EQ(fired, 1);
  Timer defaulted;
  EXPECT_FALSE(defaulted.active());
  defaulted.cancel();  // default-constructed handle: also a no-op
}

TEST(SimulatorTest, CancelledDaemonEventsDoNotFireInRunUntil) {
  Simulator simulator;
  bool live_fired = false;
  Timer cancelled = simulator.schedule_daemon_after(seconds(1), [] { FAIL(); });
  simulator.schedule_daemon_after(seconds(2), [&] { live_fired = true; });
  cancelled.cancel();
  simulator.run_until(seconds(5));
  EXPECT_TRUE(live_fired);
  EXPECT_EQ(simulator.now(), seconds(5));
}

TEST(SimulatorTest, CancellingForegroundEventLetsRunReturn) {
  Simulator simulator;
  Timer foreground = simulator.schedule_after(seconds(1), [] { FAIL(); });
  bool daemon_fired = false;
  simulator.schedule_daemon_after(seconds(2), [&] { daemon_fired = true; });
  foreground.cancel();
  EXPECT_EQ(simulator.foreground_pending(), 0u);
  // Only a cancelled foreground and a daemon remain: run() returns
  // without executing either.
  EXPECT_EQ(simulator.run(), 0u);
  EXPECT_FALSE(daemon_fired);
}

TEST(SimulatorTest, RunUntilIsInclusive) {
  Simulator simulator;
  int count = 0;
  simulator.schedule_after(seconds(1), [&] { ++count; });
  simulator.schedule_after(seconds(5), [&] { ++count; });  // == deadline
  simulator.schedule_after(seconds(10), [&] { ++count; });
  EXPECT_EQ(simulator.run_until(seconds(5)), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(simulator.now(), seconds(5));
}

TEST(SimulatorTest, LargeCapturesFallBackToTheHeapPath) {
  // Closures above the core's 80-byte in-place buffer take the heap
  // fallback; behaviour must be identical.
  Simulator simulator;
  std::array<std::uint64_t, 24> big{};  // 192 bytes of capture
  big[23] = 7;
  std::uint64_t seen = 0;
  simulator.schedule_after(seconds(1), [&seen, big] { seen = big[23]; });
  EXPECT_EQ(simulator.foreground_pending(), 1u);
  simulator.run();
  EXPECT_EQ(seen, 7u);
  EXPECT_EQ(simulator.now(), seconds(1));
}

// --------------------------------------------------------------------------
// Event-core edge cases: events at the current instant, events scheduled
// into the gap run_until() leaves between the clock and the next queued
// event, and events many simulated weeks ahead.
// --------------------------------------------------------------------------

TEST(SimulatorTest, ScheduleAtNowFiresImmediately) {
  Simulator simulator;
  simulator.schedule_after(seconds(2), [] {});
  simulator.run();
  ASSERT_EQ(simulator.now(), seconds(2));

  std::vector<int> order;
  simulator.schedule_at(simulator.now(), [&] { order.push_back(0); });
  simulator.schedule_after(Duration{0}, [&] { order.push_back(1); });
  simulator.schedule_after(seconds(1), [&] { order.push_back(2); });
  simulator.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(simulator.now(), seconds(3));
}

TEST(SimulatorTest, ScheduleIntoRunUntilGapFiresInOrder) {
  // run_until() stops between events and moves the clock to its
  // deadline. Events scheduled into the gap before the next queued event
  // must fire first, in (when, seq) order.
  Simulator simulator;
  std::vector<int> order;
  simulator.schedule_after(seconds(10), [&] { order.push_back(10); });
  simulator.run_until(seconds(5));
  ASSERT_EQ(simulator.now(), seconds(5));

  simulator.schedule_after(seconds(3), [&] { order.push_back(8); });
  simulator.schedule_after(seconds(1), [&] { order.push_back(6); });
  simulator.run();
  EXPECT_EQ(order, (std::vector<int>{6, 8, 10}));
  EXPECT_EQ(simulator.now(), seconds(10));
}

TEST(SimulatorTest, CancelInsideRunUntilGapDoesNotFire) {
  Simulator simulator;
  bool late_fired = false;
  simulator.schedule_after(seconds(10), [&] { late_fired = true; });
  simulator.run_until(seconds(5));
  Timer gap = simulator.schedule_after(seconds(1), [] { FAIL(); });
  gap.cancel();
  simulator.run();
  EXPECT_TRUE(late_fired);
}

// 2^42 us, about 51 simulated days.
constexpr Time kFiftyOneDays = Time{1} << 42;

TEST(SimulatorTest, EventsPastFiftyOneDaysFireInOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.schedule_at(kFiftyOneDays + hours(100),
                        [&] { order.push_back(3); });
  simulator.schedule_at(kFiftyOneDays, [&] { order.push_back(2); });
  simulator.schedule_at(hours(1), [&] { order.push_back(1); });
  simulator.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(simulator.now(), kFiftyOneDays + hours(100));
}

TEST(SimulatorTest, CancelledFarFutureEventsDoNotFire) {
  Simulator simulator;
  bool near_fired = false;
  Timer far =
      simulator.schedule_at(kFiftyOneDays + seconds(1), [] { FAIL(); });
  simulator.schedule_after(seconds(1), [&] { near_fired = true; });
  far.cancel();
  simulator.run();
  EXPECT_TRUE(near_fired);
  EXPECT_EQ(simulator.now(), seconds(1));
}

// --------------------------------------------------------------------------
// Timer handles: a Timer names its event's slab slot and seq. A slot is
// reused once its event has fired, or been cancelled and pruned off the
// heap, and the core takes every free slot before it grows the slab, so
// scheduling more events than it has slots puts one in the old slot.
// --------------------------------------------------------------------------

// Schedules `count` foreground events at +1 s that count their firings.
std::vector<Timer> schedule_counted(Simulator& simulator, int count,
                                    int& fired) {
  std::vector<Timer> timers;
  for (int i = 0; i < count; ++i)
    timers.push_back(
        simulator.schedule_after(seconds(1), [&fired] { ++fired; }));
  return timers;
}

constexpr int kMoreThanTheSlab = 1000;

TEST(SimulatorTest, StaleHandleOfAFiredEventMissesTheSlotsNextEvent) {
  Simulator simulator;
  Timer stale = simulator.schedule_after(seconds(1), [] {});
  simulator.run();
  ASSERT_EQ(simulator.pending_events(), 0u);

  int fired = 0;
  const std::vector<Timer> reused =
      schedule_counted(simulator, kMoreThanTheSlab, fired);
  EXPECT_FALSE(stale.active());
  stale.cancel();
  EXPECT_FALSE(stale.active());
  EXPECT_EQ(simulator.foreground_pending(),
            static_cast<std::size_t>(kMoreThanTheSlab));
  for (const Timer& timer : reused) EXPECT_TRUE(timer.active());
  simulator.run();
  EXPECT_EQ(fired, kMoreThanTheSlab);
}

TEST(SimulatorTest, StaleHandleOfAPrunedEventMissesTheSlotsNextEvent) {
  Simulator simulator;
  Timer stale = simulator.schedule_after(seconds(1), [] { FAIL(); });
  stale.cancel();
  // next_event_time() prunes the cancelled record, freeing its slot.
  EXPECT_EQ(simulator.next_event_time(), -1);
  ASSERT_EQ(simulator.pending_events(), 0u);

  int fired = 0;
  const std::vector<Timer> reused =
      schedule_counted(simulator, kMoreThanTheSlab, fired);
  EXPECT_FALSE(stale.active());
  stale.cancel();
  EXPECT_EQ(simulator.foreground_pending(),
            static_cast<std::size_t>(kMoreThanTheSlab));
  for (const Timer& timer : reused) EXPECT_TRUE(timer.active());
  simulator.run();
  EXPECT_EQ(fired, kMoreThanTheSlab);
}

TEST(SimulatorTest, TimerIsInactiveInsideItsOwnCallback) {
  Simulator simulator;
  Timer foreground;
  Timer daemon;
  int inactive_inside = 0;
  foreground = simulator.schedule_after(seconds(1), [&] {
    if (!foreground.active()) ++inactive_inside;
    foreground.cancel();  // a no-op: must not touch the pending count
  });
  daemon = simulator.schedule_daemon_after(seconds(1), [&] {
    if (!daemon.active()) ++inactive_inside;
    daemon.cancel();
  });
  simulator.schedule_after(seconds(2), [] {});
  EXPECT_EQ(simulator.foreground_pending(), 2u);
  simulator.run();
  EXPECT_EQ(inactive_inside, 2);
  EXPECT_EQ(simulator.foreground_pending(), 0u);
}

TEST(SimulatorTest, CopiesOfOneHandleAgree) {
  Simulator simulator;
  const Timer original = simulator.schedule_after(seconds(1), [] { FAIL(); });
  Timer copy = original;
  EXPECT_TRUE(original.active());
  EXPECT_TRUE(copy.active());
  copy.cancel();
  EXPECT_FALSE(original.active());
  EXPECT_FALSE(copy.active());
  Timer second_copy = original;
  second_copy.cancel();  // already cancelled: a no-op
  EXPECT_EQ(simulator.foreground_pending(), 0u);

  const Timer fires = simulator.schedule_after(seconds(1), [] {});
  const Timer fires_copy = fires;
  simulator.run();
  EXPECT_FALSE(fires.active());
  EXPECT_FALSE(fires_copy.active());
}

// Drains events due at `whens` (scheduled in that order) and returns
// their indices in firing order, next to the order the contract asks
// for: by time, ties in scheduling order.
std::pair<std::vector<std::size_t>, std::vector<std::size_t>> drain_order(
    const std::vector<Time>& whens) {
  Simulator simulator;
  std::vector<std::size_t> fired;
  for (std::size_t i = 0; i < whens.size(); ++i)
    simulator.schedule_at(whens[i], [&fired, i] { fired.push_back(i); });
  simulator.run();
  std::vector<std::size_t> expected(whens.size());
  for (std::size_t i = 0; i < expected.size(); ++i) expected[i] = i;
  std::stable_sort(expected.begin(), expected.end(),
                   [&](std::size_t a, std::size_t b) {
                     return whens[a] < whens[b];
                   });
  return {fired, expected};
}

TEST(SimulatorTest, SmallDrainsMatchASortByTimeThenSeq) {
  Rng rng(34);
  for (std::size_t size = 0; size <= 9; ++size) {
    for (int shape = 0; shape < 20; ++shape) {
      std::vector<Time> whens(size);
      for (Time& when : whens) when = seconds(rng.uniform_int(0, 3));
      const auto [fired, expected] = drain_order(whens);
      EXPECT_EQ(fired, expected) << "size " << size << ", shape " << shape;
    }
  }
}

TEST(SimulatorTest, LargeDrainWithHeavyTiesMatchesASortByTimeThenSeq) {
  Rng rng(35);
  std::vector<Time> whens(100'000);
  // 100 distinct timestamps: about 1,000 events tie on each.
  for (Time& when : whens) when = milliseconds(rng.uniform_int(0, 99));
  const auto [fired, expected] = drain_order(whens);
  ASSERT_EQ(fired.size(), whens.size());
  EXPECT_EQ(fired, expected);
}

// Test-local reference model of the event core's contract: a list kept
// sorted by (when, seq) with a cancel flag per entry, executed front to
// back. Deliberately naive, so that the core's order is checked against
// an independent implementation.
class ReferenceScheduler {
 public:
  struct Entry {
    Time when;
    std::uint64_t seq;
    std::function<void()> fn;
    bool cancelled = false;
    bool fired = false;
  };
  // Shares its entry with the list, so it stays valid after the entry
  // fires; cancelling then is a no-op, as on a sim::Timer.
  class Handle {
   public:
    explicit Handle(std::shared_ptr<Entry> entry) : entry_(std::move(entry)) {}
    void cancel() { entry_->cancelled = true; }
    bool active() const { return !entry_->cancelled && !entry_->fired; }

   private:
    std::shared_ptr<Entry> entry_;
  };

  Time now() const { return now_; }

  Handle schedule_after(Duration delay, std::function<void()> fn) {
    auto entry = std::make_shared<Entry>(
        Entry{now_ + delay, next_seq_++, std::move(fn)});
    // seq only grows, so the first later timestamp is the insert point.
    const auto pos = std::find_if(
        entries_.begin(), entries_.end(),
        [&](const std::shared_ptr<Entry>& e) { return e->when > entry->when; });
    entries_.insert(pos, entry);
    return Handle(std::move(entry));
  }

  void run() {
    while (!entries_.empty()) {
      const std::shared_ptr<Entry> entry = std::move(entries_.front());
      entries_.pop_front();
      if (entry->cancelled) continue;
      now_ = entry->when;
      entry->fired = true;
      entry->fn();
    }
  }

 private:
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::list<std::shared_ptr<Entry>> entries_;
};

// What a seeded schedule observed: every firing as (time, id), and every
// cancel as (time, timer index, whether the timer was active just before).
struct ScheduleLog {
  std::vector<std::pair<Time, int>> fired;
  std::vector<std::tuple<Time, std::size_t, bool>> cancels;
};

// Drives one randomized schedule (bursty timestamps, ties, cancellations,
// re-entrant scheduling) and logs it. Callbacks also cancel timers picked
// from every one scheduled so far: some are pending, some already fired
// (their slots in the core reused by later events), some already
// cancelled.
template <typename Scheduler>
ScheduleLog run_seeded_schedule(Scheduler& scheduler) {
  Rng rng(2024);
  ScheduleLog log;
  std::vector<decltype(scheduler.schedule_after(0, [] {}))> timers;
  int next_id = 0;
  std::function<void(int)> fire = [&](int id) {
    log.fired.emplace_back(scheduler.now(), id);
    // A third of firings reschedule follow-up work, like RPC chains.
    if (rng.uniform(0.0, 1.0) < 0.33 && next_id < 3000) {
      const int child = next_id++;
      timers.push_back(scheduler.schedule_after(
          microseconds(rng.uniform_int(0, 500'000)),
          [&fire, child] { fire(child); }));
    }
    // A fifth cancel a timer, like a response cancelling its timeout.
    if (rng.uniform(0.0, 1.0) < 0.2) {
      const auto index = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(timers.size()) - 1));
      log.cancels.emplace_back(scheduler.now(), index,
                               timers[index].active());
      timers[index].cancel();
    }
  };
  for (int i = 0; i < 2000; ++i) {
    const int id = next_id++;
    // Cluster timestamps so ties are common.
    const Duration when = microseconds(rng.uniform_int(0, 50) * 10'000);
    timers.push_back(
        scheduler.schedule_after(when, [&fire, id] { fire(id); }));
  }
  for (std::size_t i = 0; i < timers.size(); i += 7) timers[i].cancel();
  scheduler.run();
  return log;
}

TEST(SimulatorTest, MatchesReferenceModelOnSeededSchedules) {
  Simulator simulator;
  ReferenceScheduler reference;
  const ScheduleLog core = run_seeded_schedule(simulator);
  const ScheduleLog model = run_seeded_schedule(reference);
  ASSERT_EQ(core.fired.size(), model.fired.size());
  EXPECT_EQ(core.fired, model.fired);
  EXPECT_EQ(core.cancels, model.cancels);
  EXPECT_EQ(simulator.foreground_pending(), 0u);
  // The schedule cancels both pending and spent timers.
  const auto live = std::count_if(
      model.cancels.begin(), model.cancels.end(),
      [](const auto& cancel) { return std::get<2>(cancel); });
  EXPECT_GT(live, 0);
  EXPECT_LT(static_cast<std::size_t>(live), model.cancels.size());
}

// --------------------------------------------------------------------------
// Rng
// --------------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, ForkedStreamsAreIndependent) {
  Rng base(42);
  Rng fork_a = base.fork("alpha");
  Rng fork_b = base.fork("beta");
  Rng fork_a2 = base.fork("alpha");
  EXPECT_EQ(fork_a.next(), fork_a2.next());
  // Different names should diverge immediately (overwhelmingly likely).
  Rng x = base.fork("alpha");
  Rng y = base.fork("beta");
  EXPECT_NE(x.next(), y.next());
  (void)fork_b;
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const auto v = rng.uniform_int(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, ExponentialHasRoughlyCorrectMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(RngTest, LognormalMedianIsRoughlyCorrect) {
  Rng rng(13);
  std::vector<double> samples;
  for (int i = 0; i < 20001; ++i) samples.push_back(rng.lognormal_median(10.0, 1.0));
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  EXPECT_NEAR(samples[samples.size() / 2], 10.0, 0.5);
}

TEST(RngTest, ZipfPrefersLowRanks) {
  Rng rng(17);
  std::uint64_t head = 0, tail = 0;
  for (int i = 0; i < 10000; ++i) {
    const auto r = rng.zipf(1000, 1.0);
    EXPECT_GE(r, 1u);
    EXPECT_LE(r, 1000u);
    if (r <= 10) ++head;      // top 1 % of ranks
    if (r > 500) ++tail;      // bottom 50 % of ranks
  }
  // Under Zipf(1) the 10 most popular items draw far more requests than
  // the 500 least popular ones combined.
  EXPECT_GT(head, 2 * tail);
}

// --------------------------------------------------------------------------
// Network
// --------------------------------------------------------------------------

LatencyModel two_region_model() {
  // 10 ms intra-region, 100 ms cross-region one-way.
  return LatencyModel({{10.0, 100.0}, {100.0, 10.0}}, 1.0, 1.0);
}

struct Ping : Message {};
struct Pong : Message {};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : latency_(two_region_model()), net_(sim_, latency_, 1) {}

  Simulator sim_;
  LatencyModel latency_;
  Network net_;
};

TEST_F(NetworkTest, ConnectTakesHandshakeRoundTrips) {
  const NodeId a = net_.add_node({.region = 0});
  const NodeId b = net_.add_node({.region = 1});
  bool done = false;
  Duration elapsed = 0;
  net_.connect(a, b, [&](bool ok, Duration d) {
    done = ok;
    elapsed = d;
  });
  sim_.run();
  ASSERT_TRUE(done);
  // TCP: 2 round trips of 200 ms RTT each.
  EXPECT_EQ(elapsed, milliseconds(400));
  EXPECT_TRUE(net_.connected(a, b));
  EXPECT_TRUE(net_.connected(b, a));
}

TEST_F(NetworkTest, ReconnectIsImmediate) {
  const NodeId a = net_.add_node({.region = 0});
  const NodeId b = net_.add_node({.region = 0});
  net_.connect(a, b, [](bool, Duration) {});
  sim_.run();
  Duration second = -1;
  net_.connect(a, b, [&](bool ok, Duration d) {
    EXPECT_TRUE(ok);
    second = d;
  });
  sim_.run();
  EXPECT_EQ(second, 0);
}

// --------------------------------------------------------------------------
// Node lifecycle: a node is up or down. Going offline bumps its epoch,
// so a callback captured before the node went down never fires, even
// after the node comes back.
// --------------------------------------------------------------------------

TEST_F(NetworkTest, OfflineRequesterCallbackIsMuted) {
  const NodeId a = net_.add_node({.region = 0});
  const NodeId victim = net_.add_node({.region = 1});
  net_.set_request_handler(victim,
                           [](NodeId, const MessagePtr&, auto respond) {
                             respond(std::make_shared<Pong>(), 64);
                           });
  net_.connect(a, victim, [](bool, Duration) {});
  sim_.run();

  // The requester goes offline and comes back while its request is in
  // flight, and the victim answers. The callback was captured under the
  // old epoch and must stay muted: it must neither fire for the
  // restarted node nor leak.
  bool cb_fired = false;
  net_.request(a, victim, std::make_shared<Ping>(), 64, seconds(30),
               [&](RpcStatus, MessagePtr) { cb_fired = true; });
  net_.set_online(a, false);
  net_.set_online(a, true);

  sim_.run();
  EXPECT_FALSE(cb_fired);
  EXPECT_EQ(net_.pending_request_count(), 0u);
}

TEST_F(NetworkTest, OfflineResponderFailsInFlightRequests) {
  const NodeId a = net_.add_node({.region = 0});
  const NodeId b = net_.add_node({.region = 0});  // no handler: never answers
  net_.connect(a, b, [](bool, Duration) {});
  sim_.run();

  RpcStatus status = RpcStatus::kOk;
  bool fired = false;
  net_.request(a, b, std::make_shared<Ping>(), 64, seconds(30),
               [&](RpcStatus s, MessagePtr) {
                 fired = true;
                 status = s;
               });
  net_.set_online(b, false);
  sim_.run();
  EXPECT_TRUE(fired);
  EXPECT_NE(status, RpcStatus::kOk);
  EXPECT_EQ(net_.pending_request_count(), 0u);
}

TEST_F(NetworkTest, DialToNatPeerTimesOutAtTransportTimeout) {
  const NodeId a = net_.add_node({.region = 0});
  // NAT'ed targets always hang for the full transport timeout (plus a
  // little scheduler slack); offline-but-dialable hosts may fail fast.
  const NodeId b = net_.add_node(
      {.region = 0, .dialable = false, .transport = Transport::kTcp});
  bool ok = true;
  Duration elapsed = 0;
  net_.connect(a, b, [&](bool success, Duration d) {
    ok = success;
    elapsed = d;
  });
  sim_.run();
  EXPECT_FALSE(ok);
  EXPECT_GE(elapsed, seconds(5));
  EXPECT_LE(elapsed, seconds(5) + milliseconds(150));
}

TEST_F(NetworkTest, WebSocketDialTimeoutIs45Seconds) {
  const NodeId a = net_.add_node({.region = 0});
  const NodeId b = net_.add_node(
      {.region = 0, .dialable = false, .transport = Transport::kWebSocket});
  Duration elapsed = 0;
  net_.connect(a, b, [&](bool, Duration d) { elapsed = d; });
  sim_.run();
  EXPECT_GE(elapsed, seconds(45));
  EXPECT_LE(elapsed, seconds(45) + milliseconds(150));
}

TEST_F(NetworkTest, OfflinePeerDialsFailFastOrAtTimeout) {
  const NodeId a = net_.add_node({.region = 0});
  std::vector<NodeId> targets;
  for (int i = 0; i < 40; ++i) {
    const NodeId b = net_.add_node({.region = 0});
    net_.set_online(b, false);
    targets.push_back(b);
  }
  int fast = 0, slow = 0;
  for (const NodeId b : targets) {
    net_.connect(a, b, [&](bool ok, Duration d) {
      EXPECT_FALSE(ok);
      if (d < seconds(1))
        ++fast;  // RST after one round trip
      else
        ++slow;  // full transport timeout
    });
  }
  sim_.run();
  // kFastFailProbability = 0.7: both outcomes must appear.
  EXPECT_GT(fast, 10);
  EXPECT_GT(slow, 2);
}

TEST_F(NetworkTest, NatPeersCannotBeDialed) {
  const NodeId a = net_.add_node({.region = 0});
  const NodeId b = net_.add_node({.region = 0, .dialable = false});
  bool ok = true;
  net_.connect(a, b, [&](bool success, Duration) { ok = success; });
  sim_.run();
  EXPECT_FALSE(ok);
  EXPECT_EQ(net_.metrics().counter_value("net.dials_failed"), 1u);
}

TEST_F(NetworkTest, RequestResponseRoundTrip) {
  const NodeId a = net_.add_node({.region = 0});
  const NodeId b = net_.add_node({.region = 1});
  net_.set_request_handler(b, [](NodeId, const MessagePtr& req, auto respond) {
    EXPECT_NE(dynamic_cast<const Ping*>(req.get()), nullptr);
    respond(std::make_shared<Pong>(), 100);
  });
  net_.connect(a, b, [](bool, Duration) {});
  sim_.run();

  RpcStatus status = RpcStatus::kTimeout;
  MessagePtr response;
  const Time start = sim_.now();
  Time end = 0;
  net_.request(a, b, std::make_shared<Ping>(), 100, seconds(10),
               [&](RpcStatus s, MessagePtr r) {
                 status = s;
                 response = std::move(r);
                 end = sim_.now();
               });
  sim_.run();
  EXPECT_EQ(status, RpcStatus::kOk);
  EXPECT_NE(dynamic_cast<const Pong*>(response.get()), nullptr);
  // One RTT (200 ms) plus negligible transfer time.
  EXPECT_GE(end - start, milliseconds(200));
  EXPECT_LT(end - start, milliseconds(210));
}

TEST_F(NetworkTest, RequestToUnresponsivePeerTimesOut) {
  const NodeId a = net_.add_node({.region = 0});
  const NodeId b = net_.add_node({.region = 0});
  net_.set_request_handler(b, [](NodeId, const MessagePtr&, auto respond) {
    respond(std::make_shared<Pong>(), 10);
  });
  net_.connect(a, b, [](bool, Duration) {});
  sim_.run();
  // Stalled: b still takes requests but never answers.
  net_.set_request_handler(b, [](NodeId, const MessagePtr&, auto) {});

  RpcStatus status = RpcStatus::kOk;
  const Time start = sim_.now();
  Time end = 0;
  net_.request(a, b, std::make_shared<Ping>(), 10, seconds(2),
               [&](RpcStatus s, MessagePtr) {
                 status = s;
                 end = sim_.now();
               });
  sim_.run();
  EXPECT_EQ(status, RpcStatus::kTimeout);
  EXPECT_EQ(end - start, seconds(2));
}

TEST_F(NetworkTest, RequestWithoutConnectionIsUnreachable) {
  const NodeId a = net_.add_node({.region = 0});
  const NodeId b = net_.add_node({.region = 0});
  RpcStatus status = RpcStatus::kOk;
  net_.request(a, b, std::make_shared<Ping>(), 10, seconds(1),
               [&](RpcStatus s, MessagePtr) { status = s; });
  sim_.run();
  EXPECT_EQ(status, RpcStatus::kUnreachable);
}

TEST_F(NetworkTest, GoingOfflineDropsConnections) {
  const NodeId a = net_.add_node({.region = 0});
  const NodeId b = net_.add_node({.region = 0});
  net_.connect(a, b, [](bool, Duration) {});
  sim_.run();
  ASSERT_TRUE(net_.connected(a, b));
  net_.set_online(b, false);
  EXPECT_FALSE(net_.connected(a, b));
  EXPECT_TRUE(net_.connections_of(a).empty());
}

TEST_F(NetworkTest, SendDeliversToConnectedPeer) {
  const NodeId a = net_.add_node({.region = 0});
  const NodeId b = net_.add_node({.region = 0});
  int received = 0;
  net_.set_message_handler(b, [&](NodeId from, const MessagePtr&) {
    EXPECT_EQ(from, a);
    ++received;
  });
  net_.connect(a, b, [](bool, Duration) {});
  sim_.run();
  net_.send(a, b, std::make_shared<Ping>(), 50);
  sim_.run();
  EXPECT_EQ(received, 1);
}

TEST_F(NetworkTest, UplinkSerializesConcurrentTransfers) {
  // Two large sends from one node share its uplink: the second is queued
  // behind the first instead of magically doubling the bandwidth.
  const NodeId src = net_.add_node(
      {.region = 0, .upload_bytes_per_sec = 1024.0 * 1024});
  const NodeId dst_a = net_.add_node({.region = 0});
  const NodeId dst_b = net_.add_node({.region = 0});
  net_.connect(src, dst_a, [](bool, Duration) {});
  net_.connect(src, dst_b, [](bool, Duration) {});
  sim_.run();

  Time first = 0, second = 0;
  net_.set_message_handler(dst_a, [&](NodeId, const MessagePtr&) {
    first = sim_.now();
  });
  net_.set_message_handler(dst_b, [&](NodeId, const MessagePtr&) {
    second = sim_.now();
  });
  const Time start = sim_.now();
  net_.send(src, dst_a, std::make_shared<Ping>(), 1024 * 1024);  // 1 s
  net_.send(src, dst_b, std::make_shared<Ping>(), 1024 * 1024);  // +1 s
  sim_.run();
  EXPECT_GE(first - start, seconds(1));
  EXPECT_LT(first - start, seconds(1.2));
  EXPECT_GE(second - start, seconds(2));  // queued behind the first
  EXPECT_LT(second - start, seconds(2.2));
}

TEST_F(NetworkTest, DistinctSendersDoNotQueueOnEachOther) {
  const NodeId src_a = net_.add_node(
      {.region = 0, .upload_bytes_per_sec = 1024.0 * 1024});
  const NodeId src_b = net_.add_node(
      {.region = 0, .upload_bytes_per_sec = 1024.0 * 1024});
  const NodeId dst = net_.add_node(
      {.region = 0, .download_bytes_per_sec = 100.0 * 1024 * 1024});
  net_.connect(src_a, dst, [](bool, Duration) {});
  net_.connect(src_b, dst, [](bool, Duration) {});
  sim_.run();

  int delivered = 0;
  Time last = 0;
  net_.set_message_handler(dst, [&](NodeId, const MessagePtr&) {
    ++delivered;
    last = sim_.now();
  });
  const Time start = sim_.now();
  net_.send(src_a, dst, std::make_shared<Ping>(), 1024 * 1024);
  net_.send(src_b, dst, std::make_shared<Ping>(), 1024 * 1024);
  sim_.run();
  EXPECT_EQ(delivered, 2);
  // Both arrive around 1 s: independent uplinks run in parallel.
  EXPECT_LT(last - start, seconds(1.3));
}

TEST_F(NetworkTest, LargeTransfersTakeBandwidthTime) {
  const NodeId a = net_.add_node(
      {.region = 0, .upload_bytes_per_sec = 1024.0 * 1024});
  const NodeId b = net_.add_node({.region = 0});
  // 1 MiB at 1 MiB/s upload = 1 s.
  EXPECT_EQ(net_.transfer_time(a, b, 1024 * 1024), seconds(1));
}

// --------------------------------------------------------------------------
// Churn
// --------------------------------------------------------------------------

TEST(ChurnTest, NodesCycleThroughSessions) {
  Simulator sim;
  const LatencyModel latency({{5.0}}, 1.0, 1.0);
  Network net(sim, latency, 3);
  ChurnProcess churn(net, 3);

  const NodeId node = net.add_node({.region = 0});
  churn.manage(node, /*session_median_minutes=*/1.5,
               /*offline_median_minutes=*/1.5);

  // Sample the node's state every second and count the flips.
  int online_events = 0, offline_events = 0;
  bool online = net.online(node);
  for (Time t = seconds(1); t <= hours(1); t += seconds(1)) {
    sim.run_until(t);
    if (net.online(node) == online) continue;
    online = !online;
    ++(online ? online_events : offline_events);
  }
  EXPECT_GT(online_events, 5);
  EXPECT_GT(offline_events, 5);
  EXPECT_GT(churn.transitions(), 10u);
}

// --------------------------------------------------------------------------
// FaultPlan
// --------------------------------------------------------------------------

class FaultPlanTest : public ::testing::Test {
 protected:
  FaultPlanTest() : latency_({{10.0}}, 1.0, 1.0), net_(sim_, latency_, 5) {
    a_ = net_.add_node({.region = 0});
    b_ = net_.add_node({.region = 0});
    c_ = net_.add_node({.region = 0});
  }

  Simulator sim_;
  LatencyModel latency_;
  Network net_;
  NodeId a_ = kInvalidNode;
  NodeId b_ = kInvalidNode;
  NodeId c_ = kInvalidNode;
};

TEST_F(FaultPlanTest, MessageFaultDrawsAreDeterministicPerSeed) {
  FaultConfig config;
  config.drop_prob = 0.3;
  config.duplicate_prob = 0.2;
  config.reorder_prob = 0.25;
  FaultPlan first(net_, config, 99);
  FaultPlan second(net_, config, 99);
  FaultPlan other_seed(net_, config, 100);

  bool diverged = false;
  for (int i = 0; i < 200; ++i) {
    const bool drop = first.drop_message(a_, b_);
    EXPECT_EQ(drop, second.drop_message(a_, b_));
    EXPECT_EQ(first.duplicate_message(a_, b_), second.duplicate_message(a_, b_));
    EXPECT_EQ(first.reorder_delay(a_, b_), second.reorder_delay(a_, b_));
    if (drop != other_seed.drop_message(a_, b_)) diverged = true;
  }
  EXPECT_TRUE(diverged) << "different seeds drew identical fault sequences";
  EXPECT_EQ(first.counters().messages_dropped,
            second.counters().messages_dropped);
  EXPECT_GT(first.counters().messages_dropped, 0u);
}

TEST_F(FaultPlanTest, ZeroConfigInjectsNothing) {
  FaultPlan plan(net_, FaultConfig{}, 7);
  plan.arm();
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(plan.drop_message(a_, b_));
    EXPECT_FALSE(plan.duplicate_message(a_, b_));
    EXPECT_EQ(plan.reorder_delay(a_, b_), 0);
    EXPECT_FALSE(plan.fail_dial(a_, b_));
    EXPECT_EQ(plan.latency_factor(a_, b_), 1.0);
  }
  sim_.run();
  EXPECT_EQ(plan.counters().total_injected(), 0u);
}

TEST_F(FaultPlanTest, InjectedDialFailureHangsUntilTransportTimeout) {
  FaultConfig config;
  config.dial_failure_prob = 1.0;
  FaultPlan plan(net_, config, 11);
  plan.arm();

  bool done = false;
  const Time start = sim_.now();
  net_.connect(a_, b_, [&](bool ok, Duration) {
    done = true;
    EXPECT_FALSE(ok);
    // The injected failure models a half-broken NAT mapping: the dial
    // hangs until the transport timeout (plus the fabric's 20-150 ms of
    // scheduler/teardown slack) rather than fast-failing.
    EXPECT_GE(sim_.now() - start, dial_timeout(Transport::kTcp));
    EXPECT_LE(sim_.now() - start,
              dial_timeout(Transport::kTcp) + milliseconds(150));
  });
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_GT(plan.counters().dials_failed, 0u);
}

TEST_F(FaultPlanTest, ResetConnectionFailsInFlightRequestsWithReset) {
  net_.set_request_handler(b_, [](NodeId, const MessagePtr&, auto respond) {
    // Answer with one round-trip's worth of delay already paid; the reset
    // lands before the response does.
    respond(std::make_shared<Pong>(), 64);
  });
  net_.connect(a_, b_, [](bool, Duration) {});
  sim_.run();
  ASSERT_TRUE(net_.connected(a_, b_));

  RpcStatus observed = RpcStatus::kOk;
  bool done = false;
  net_.request(a_, b_, std::make_shared<Ping>(), 64, seconds(30),
               [&](RpcStatus status, const MessagePtr&) {
                 observed = status;
                 done = true;
               });
  // One-way latency is 10 ms: the request is still in flight at 5 ms.
  sim_.schedule_after(milliseconds(5), [&] { net_.reset_connection(a_, b_); });
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(observed, RpcStatus::kReset);
  EXPECT_FALSE(net_.connected(a_, b_));
  EXPECT_EQ(net_.pending_request_count(), 0u);
}

TEST_F(FaultPlanTest, CrashRestartCyclesNotifyListenersAndRecover) {
  FaultConfig config;
  config.crashes_per_hour_per_node = 60.0;  // about one per minute
  config.min_downtime = seconds(5);
  config.max_downtime = seconds(20);
  FaultPlan plan(net_, config, 21);
  plan.manage_crashes(b_);

  int crash_events = 0, restart_events = 0;
  plan.add_crash_listener([&](NodeId node, bool online) {
    EXPECT_EQ(node, b_);
    if (online)
      ++restart_events;
    else
      ++crash_events;
  });

  plan.arm();
  sim_.run_until(minutes(30));
  EXPECT_GT(plan.counters().crashes, 5u);
  EXPECT_EQ(crash_events, static_cast<int>(plan.counters().crashes));
  EXPECT_EQ(restart_events, static_cast<int>(plan.counters().restarts));

  // disarm() revives anything still down so the world can drain.
  plan.disarm();
  EXPECT_EQ(plan.crashed_count(), 0u);
  EXPECT_TRUE(net_.online(b_));
  EXPECT_EQ(crash_events, restart_events);
}

TEST_F(FaultPlanTest, StormNodesKeepTheirCrashCycle) {
  FaultConfig config;
  config.crashes_per_hour_per_node = 60.0;
  config.min_downtime = seconds(5);
  config.max_downtime = seconds(20);
  // A zero window lands the storm on every managed node at once.
  const Time storm_at = seconds(30);
  config.churn_storm = ChurnStormConfig{.fraction = 1.0,
                                        .start = storm_at,
                                        .window = 0,
                                        .min_downtime = seconds(5),
                                        .max_downtime = seconds(15)};
  FaultPlan plan(net_, config, 41);
  plan.manage_crashes(b_);
  plan.manage_crashes(c_);

  std::map<NodeId, std::vector<std::pair<Time, bool>>> transitions;
  plan.add_crash_listener([&](NodeId node, bool online) {
    transitions[node].emplace_back(sim_.now(), online);
  });
  // c_ goes down from outside just before the storm reaches it, and
  // comes back ten seconds later.
  sim_.schedule_at(storm_at - milliseconds(1),
                   [&] { net_.set_online(c_, false); });
  sim_.schedule_at(storm_at + seconds(10), [&] { net_.set_online(c_, true); });

  plan.arm();
  sim_.run_until(minutes(30));
  for (const NodeId node : {b_, c_}) {
    const auto& seen = transitions[node];
    ASSERT_FALSE(seen.empty()) << "node " << node << " never crashed";
    std::size_t crashes_after_storm = 0;
    for (std::size_t i = 0; i < seen.size(); ++i) {
      EXPECT_EQ(seen[i].second, i % 2 == 1)
          << "node " << node << " transition " << i;
      if (!seen[i].second && seen[i].first > storm_at) ++crashes_after_storm;
    }
    EXPECT_GT(crashes_after_storm, 3u) << "node " << node;
  }
  EXPECT_EQ(transitions[b_].front().first, storm_at);  // the storm's crash
  EXPECT_GT(transitions[c_].front().first, storm_at);  // skipped the storm

  plan.disarm();
  EXPECT_EQ(plan.crashed_count(), 0u);
  for (const NodeId node : {a_, b_, c_}) EXPECT_TRUE(net_.online(node));
}

TEST_F(FaultPlanTest, LatencySpikesAreCountedAndScaleTheLink) {
  FaultConfig config;
  config.latency_spikes_per_hour = 3600.0;  // about one per second
  config.latency_spike_factor = 8.0;
  config.latency_spike_duration = hours(10);  // effectively permanent
  FaultPlan plan(net_, config, 33);
  plan.arm();
  sim_.run_until(minutes(1));
  EXPECT_GT(plan.counters().latency_spikes, 10u);

  // With every node spiked and the spike still active, each link reports
  // the configured factor.
  EXPECT_EQ(plan.latency_factor(a_, b_), 8.0);
  EXPECT_EQ(plan.latency_factor(b_, c_), 8.0);
  plan.detach();
}

}  // namespace
}  // namespace ipfs::sim
