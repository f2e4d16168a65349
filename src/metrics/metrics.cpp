#include "metrics/metrics.h"

#include <utility>

namespace ipfs::metrics {

void DurationHistogram::record(sim::Duration d) {
  samples_.push_back(sim::to_seconds(d));
  sum_ += d;
}

Registry::Registry(std::function<sim::Time()> clock)
    : clock_(std::move(clock)) {}

Counter& Registry::counter(const std::string& name) { return counters_[name]; }

DurationHistogram& Registry::histogram(const std::string& name) {
  return histograms_[name];
}

std::uint64_t Registry::counter_value(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

void Registry::push_event(TraceEvent event) {
  if (filter_ && !filter_(event.name)) return;
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(event));
}

SpanId Registry::begin_span(const std::string& name, NodeId node,
                            std::string cid, SpanId parent, NodeId peer) {
  const SpanId id = next_span_++;
  const sim::Time now = clock_();
  open_spans_.emplace(id, OpenSpan{name, parent, now, node, peer, cid});

  TraceEvent event;
  event.kind = EventKind::kSpanBegin;
  event.span = id;
  event.parent = parent;
  event.name = name;
  event.time = now;
  event.node = node;
  event.peer = peer;
  event.cid = std::move(cid);
  push_event(std::move(event));
  return id;
}

sim::Duration Registry::end_span(SpanId id, bool ok, std::uint64_t value) {
  const auto it = open_spans_.find(id);
  if (it == open_spans_.end()) return 0;
  OpenSpan span = std::move(it->second);
  open_spans_.erase(it);

  const sim::Time now = clock_();
  const sim::Duration duration = now - span.begin;
  histogram(span.name).record(duration);

  TraceEvent event;
  event.kind = EventKind::kSpanEnd;
  event.span = id;
  event.parent = span.parent;
  event.name = std::move(span.name);
  event.time = now;
  event.node = span.node;
  event.peer = span.peer;
  event.cid = std::move(span.cid);
  event.ok = ok;
  event.value = value;
  event.duration = duration;
  push_event(std::move(event));
  return duration;
}

void Registry::instant(const std::string& name, NodeId node, std::string cid,
                       std::uint64_t value, NodeId peer, SpanId parent) {
  TraceEvent event;
  event.kind = EventKind::kInstant;
  event.parent = parent;
  event.name = name;
  event.time = clock_();
  event.node = node;
  event.peer = peer;
  event.cid = std::move(cid);
  event.value = value;
  push_event(std::move(event));
}

}  // namespace ipfs::metrics
