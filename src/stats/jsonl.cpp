#include "stats/jsonl.h"

#include <istream>
#include <ostream>
#include <string>

namespace ipfs::stats {

namespace {

void write_escaped(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      default:
        out << c;
    }
  }
  out << '"';
}

const char* kind_name(metrics::EventKind kind) {
  switch (kind) {
    case metrics::EventKind::kSpanBegin:
      return "span_begin";
    case metrics::EventKind::kSpanEnd:
      return "span_end";
    case metrics::EventKind::kInstant:
      return "instant";
  }
  return "instant";
}

// --- minimal parsing helpers (we only ever read our own output) ------------

// Value of a numeric field `"key":<digits>` or 0 when absent.
std::uint64_t field_u64(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return 0;
  std::uint64_t value = 0;
  for (std::size_t i = pos + needle.size();
       i < line.size() && line[i] >= '0' && line[i] <= '9'; ++i) {
    value = value * 10 + static_cast<std::uint64_t>(line[i] - '0');
  }
  return value;
}

bool field_bool(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return false;
  return line.compare(pos + needle.size(), 4, "true") == 0;
}

std::string field_string(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return {};
  std::string value;
  for (std::size_t i = pos + needle.size(); i < line.size(); ++i) {
    if (line[i] == '\\' && i + 1 < line.size()) {
      const char next = line[++i];
      if (next == 'n')
        value += '\n';
      else if (next == 't')
        value += '\t';
      else
        value += next;
      continue;
    }
    if (line[i] == '"') break;
    value += line[i];
  }
  return value;
}

}  // namespace

void export_metrics_jsonl(const metrics::Registry& registry,
                          std::ostream& out) {
  for (const auto& [name, counter] : registry.counters()) {
    out << "{\"type\":\"counter\",\"name\":";
    write_escaped(out, name);
    out << ",\"value\":" << counter.value() << "}\n";
  }
  for (const auto& [name, hist] : registry.histograms()) {
    out << "{\"type\":\"histogram\",\"name\":";
    write_escaped(out, name);
    out << ",\"count\":" << hist.count() << ",\"sum_us\":" << hist.sum()
        << ",\"samples_s\":[";
    bool first = true;
    for (const double s : hist.samples_seconds()) {
      if (!first) out << ',';
      first = false;
      out << s;
    }
    out << "]}\n";
  }
}

void export_trace_jsonl(const metrics::Registry& registry, std::ostream& out) {
  for (const metrics::TraceEvent& event : registry.events()) {
    out << "{\"type\":\"" << kind_name(event.kind) << "\"";
    if (event.kind != metrics::EventKind::kInstant) {
      out << ",\"span\":" << event.span << ",\"parent\":" << event.parent;
    }
    out << ",\"name\":";
    write_escaped(out, event.name);
    out << ",\"t_us\":" << event.time << ",\"node\":" << event.node
        << ",\"peer\":" << event.peer << ",\"cid\":";
    write_escaped(out, event.cid);
    if (event.kind == metrics::EventKind::kSpanEnd) {
      out << ",\"ok\":" << (event.ok ? "true" : "false")
          << ",\"value\":" << event.value << ",\"dur_us\":" << event.duration;
    }
    if (event.kind == metrics::EventKind::kInstant) {
      out << ",\"value\":" << event.value
          << ",\"parent\":" << event.parent;
    }
    out << "}\n";
  }
}

void export_registry_jsonl(const metrics::Registry& registry,
                           std::ostream& out) {
  export_metrics_jsonl(registry, out);
  export_trace_jsonl(registry, out);
}

std::vector<metrics::TraceEvent> parse_trace_jsonl(std::istream& in) {
  std::vector<metrics::TraceEvent> events;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::string type = field_string(line, "type");
    metrics::TraceEvent event;
    if (type == "span_begin")
      event.kind = metrics::EventKind::kSpanBegin;
    else if (type == "span_end")
      event.kind = metrics::EventKind::kSpanEnd;
    else if (type == "instant")
      event.kind = metrics::EventKind::kInstant;
    else
      continue;  // instrument line (counter/histogram)
    event.span = field_u64(line, "span");
    event.parent = field_u64(line, "parent");
    event.name = field_string(line, "name");
    event.time = static_cast<sim::Time>(field_u64(line, "t_us"));
    event.node = static_cast<metrics::NodeId>(field_u64(line, "node"));
    event.peer = static_cast<metrics::NodeId>(field_u64(line, "peer"));
    event.cid = field_string(line, "cid");
    event.ok = event.kind != metrics::EventKind::kSpanEnd ||
               field_bool(line, "ok");
    event.value = field_u64(line, "value");
    event.duration = static_cast<sim::Duration>(field_u64(line, "dur_us"));
    events.push_back(std::move(event));
  }
  return events;
}

}  // namespace ipfs::stats
