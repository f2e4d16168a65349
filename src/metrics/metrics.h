// Unified observability substrate for the simulation: one per-simulation
// Registry of named counters and duration histograms, plus a
// structured trace-event stream (span begin/end with phase labels, node
// id, CID, and simulated timestamps).
//
// Everything the paper's evaluation tabulates — publication/retrieval
// phase breakdowns (Figs. 9-10), gateway cache-tier shares (Table 5),
// fault-sweep CDFs — is derived from this layer rather than from ad-hoc
// per-subsystem fields. The Registry is owned by sim::Network, so every
// component holding a Network reference reaches the same instance.
//
// The layer is observation-only: it never touches the simulation's rng
// streams or schedules events, so instrumented and uninstrumented runs
// execute identically (the seeded-determinism fuzz tests rely on this).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/time.h"

namespace ipfs::metrics {

// Mirrors sim::NodeId / sim::kInvalidNode without pulling in the network
// layer (which sits above this one in the dependency graph).
using NodeId = std::uint32_t;
constexpr NodeId kNoNode = 0xffffffffu;

class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

// Duration histogram retaining raw samples (in seconds), so consumers can
// compute exact percentiles/CDFs with the stats helpers.
class DurationHistogram {
 public:
  void record(sim::Duration d);

  std::size_t count() const { return samples_.size(); }
  sim::Duration sum() const { return sum_; }
  const std::vector<double>& samples_seconds() const { return samples_; }

 private:
  std::vector<double> samples_;
  sim::Duration sum_ = 0;
};

enum class EventKind { kSpanBegin, kSpanEnd, kInstant };

using SpanId = std::uint64_t;

struct TraceEvent {
  EventKind kind = EventKind::kInstant;
  SpanId span = 0;    // 0 for instants
  SpanId parent = 0;  // enclosing span, 0 at top level
  std::string name;   // phase label, e.g. "retrieve.provider_walk"
  sim::Time time = 0;
  NodeId node = kNoNode;  // observing node
  NodeId peer = kNoNode;  // remote party, when the event names one
  std::string cid;        // printable CID, empty when not content-bound
  bool ok = true;         // outcome, meaningful on kSpanEnd
  std::uint64_t value = 0;         // generic payload (bytes, counts)
  sim::Duration duration = 0;      // kSpanEnd only
};

class Registry {
 public:
  // `clock` supplies simulated timestamps (normally the simulator's now).
  explicit Registry(std::function<sim::Time()> clock);

  // Named instruments, created on first use. References stay valid for
  // the registry's lifetime (node-based map storage).
  Counter& counter(const std::string& name);
  DurationHistogram& histogram(const std::string& name);

  // Convenience read: 0 when the counter was never touched.
  std::uint64_t counter_value(const std::string& name) const;

  // --- Tracing -------------------------------------------------------------

  // Opens a span; emits a kSpanBegin event. `parent` links phases to the
  // operation that contains them (e.g. retrieve.fetch -> retrieve.total).
  SpanId begin_span(const std::string& name, NodeId node = kNoNode,
                    std::string cid = {}, SpanId parent = 0,
                    NodeId peer = kNoNode);

  // Closes a span: emits a kSpanEnd carrying the duration and feeds the
  // duration histogram of the same name. Returns the span's duration so
  // callers can derive their timing fields from the trace layer instead
  // of keeping hand-maintained clocks. Unknown/already-ended ids are a
  // no-op returning 0 (a crashed requester may abandon spans; ending one
  // twice must stay harmless).
  sim::Duration end_span(SpanId id, bool ok = true, std::uint64_t value = 0);

  // Point event without duration. `parent` links the instant to an open
  // (or recently closed) span, so per-operation facts — e.g. which
  // routing path won a retrieval — stay attached to the operation's span
  // tree in the exported trace.
  void instant(const std::string& name, NodeId node = kNoNode,
               std::string cid = {}, std::uint64_t value = 0,
               NodeId peer = kNoNode, SpanId parent = 0);

  // --- Introspection -------------------------------------------------------

  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t open_span_count() const { return open_spans_.size(); }

  // The event stream is bounded; once `capacity` events are recorded,
  // further events are counted in trace_dropped() instead of stored.
  // Instruments (counters/histograms) are unaffected by the cap.
  void set_trace_capacity(std::size_t capacity) { capacity_ = capacity; }
  std::size_t trace_dropped() const { return dropped_; }

  // Restricts the recorded event stream to names accepted by `filter`
  // (nullptr records everything again). Only the stream is gated:
  // instruments and span timing — including end_span's return value and
  // the duration histograms — still see every operation. Benches install
  // a phase-name filter so a thousand-peer world's ambient DHT traffic
  // does not evict the spans they analyze. Filtered events are not
  // counted in trace_dropped().
  void set_trace_filter(std::function<bool(const std::string&)> filter) {
    filter_ = std::move(filter);
  }

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, DurationHistogram>& histograms() const {
    return histograms_;
  }

 private:
  struct OpenSpan {
    std::string name;
    SpanId parent = 0;
    sim::Time begin = 0;
    NodeId node = kNoNode;
    NodeId peer = kNoNode;
    std::string cid;
  };

  void push_event(TraceEvent event);

  std::function<sim::Time()> clock_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, DurationHistogram> histograms_;
  std::unordered_map<SpanId, OpenSpan> open_spans_;
  std::vector<TraceEvent> events_;
  std::function<bool(const std::string&)> filter_;
  // ~260k events bounds the stream's memory footprint even for benches
  // that run thousand-peer worlds for a simulated day without filtering.
  std::size_t capacity_ = 1u << 18;
  std::size_t dropped_ = 0;
  SpanId next_span_ = 1;
};

}  // namespace ipfs::metrics
