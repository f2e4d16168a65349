// JSONL export (and re-import) of a metrics::Registry: one JSON object per
// line, so bench artifacts can be grepped, streamed, and diffed without a
// JSON library. Schema (see docs/OBSERVABILITY.md):
//
//   {"type":"counter","name":N,"value":V}
//   {"type":"histogram","name":N,"count":C,"sum_us":S,"samples_s":[...]}
//   {"type":"span_begin","span":I,"parent":P,"name":N,"t_us":T,
//    "node":X,"peer":Y,"cid":C}
//   {"type":"span_end",...same...,"ok":B,"value":V,"dur_us":D}
//   {"type":"instant","name":N,"t_us":T,"node":X,"peer":Y,"cid":C,"value":V}
//
// node/peer are the raw NodeId values (0xffffffff = none); timestamps and
// durations are integer simulated microseconds.
#pragma once

#include <iosfwd>
#include <vector>

#include "metrics/metrics.h"

namespace ipfs::stats {

// Instruments only (counters, histograms), sorted by name.
void export_metrics_jsonl(const metrics::Registry& registry,
                          std::ostream& out);

// Trace-event stream, in recording order.
void export_trace_jsonl(const metrics::Registry& registry, std::ostream& out);

// Both: instruments first, then the trace.
void export_registry_jsonl(const metrics::Registry& registry,
                           std::ostream& out);

// Reads trace lines back (ignores instrument lines and blank lines). The
// inverse of export_trace_jsonl; used by tooling and the round-trip tests.
std::vector<metrics::TraceEvent> parse_trace_jsonl(std::istream& in);

}  // namespace ipfs::stats
