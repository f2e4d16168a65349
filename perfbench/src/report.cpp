#include "report.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <functional>
#include <set>
#include <sstream>

namespace perfbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"setup_s", "s"},        {"wall_s", "s"},    {"ops_per_s", "op/s"},
      {"peak_rss_mb", "MiB"},  {"sim_p50_s", "s"},
  };
  return kMetrics;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"world.build_s", "s"},
      {"world.teardown_s", "s"},
      {"sim.events", "count"},
      {"sim.drive_s", "s"},
      {"sim.events_per_s", "1/s"},
      {"net.rpc_timeout_share", "ratio"},
      {"net.dial_fail_share", "ratio"},
      {"transport.tx.dropped", "count"},
      {"dht.lookup.rpc_fail_share", "ratio"},
      {"dht.publish_walk_p50_s", "s"},
      {"dht.publish_rpc_batch_p50_s", "s"},
      {"dht.retrieve_walk_p50_s", "s"},
      {"crawler.peers_found", "count"},
      {"crawler.dialable_share", "ratio"},
      {"node.retrieve_dial_p50_s", "s"},
      {"retrieve.provider_fallbacks", "count"},
      {"bitswap.discovery_p50_s", "s"},
      {"bitswap.fetch_p50_s", "s"},
      {"bitswap.bytes_received", "B"},
      {"bitswap.dont_have_share", "ratio"},
      {"merkledag.import_s", "s"},
      {"merkledag.import_mib_per_s", "MiB/s"},
      {"merkledag.verify_s", "s"},
      {"crypto.sha256_mib_per_s", "MiB/s"},
      {"gateway.edge_hit_share", "ratio"},
      {"gateway.origin_hit_share", "ratio"},
      {"gateway.node_store_share", "ratio"},
      {"gateway.p2p_share", "ratio"},
      {"gateway.p2p.coalesced", "count"},
      {"gateway.negative.hits", "count"},
      {"gateway.fleet.spills", "count"},
      {"gateway.p2p_p50_s", "s"},
      {"gateway.fleet_absorb_share", "ratio"},
      {"metrics.trace_events", "count"},
      {"metrics.trace_dropped", "count"},
      {"metrics.histogram_samples", "count"},
      {"metrics.export_s", "s"},
      {"trace.overhead_share", "ratio"},
  };
  return kMetrics;
}

namespace {

// Metrics printed by name but kept out of the result line. The p99 of a
// thousand closed-loop retrievals moves by a quarter from seed to seed, so
// no bound can gate it; the others are 0 or undefined on some workload.
const std::vector<MetricDef>& extra_metrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"sim_p99_s", "s"},
      {"fail_share", "ratio"},
      {"sim_publish_p50_s", "s"},
      {"measured_s", "s"},
  };
  return kMetrics;
}

// Layers no span or counter can see from outside the program.
constexpr const char* kUnmeasured[][2] = {
    {"blockstore",
     "BlockStore::put verification runs inside Bitswap's receive path and "
     "the in-memory store keeps no registry counters"},
    {"routing",
     "provider lookups run inside IpfsNode::retrieve; their simulated "
     "walks are reported as dht.retrieve_walk_p50_s"},
};

// Shortest text that reads back as exactly `v`.
std::string number(double v) {
  char buf[64];
  const auto end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  return std::string(buf, end);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double median_of(const std::vector<Rep>& reps,
                 const std::function<double(const Rep&)>& get) {
  std::vector<double> values;
  values.reserve(reps.size());
  for (const Rep& rep : reps) values.push_back(get(rep));
  return median(values);
}

double value_or_zero(const Values& values, const std::string& name) {
  const auto it = values.find(name);
  return it == values.end() ? 0.0 : it->second;
}

struct Times {
  double setup = 0;
  double measured = 0;
  double wall = 0;
};

// Sums each lap's median across `reps`. Repetitions run the same laps; if
// they did not, that is a failed check.
Times lap_medians(const std::vector<Rep>& reps,
                  std::vector<std::string>& failures) {
  const auto stage = [&](std::vector<double> Laps::*laps) {
    const std::size_t n = (reps.front().laps.*laps).size();
    double total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<double> values;
      for (const Rep& rep : reps) {
        if ((rep.laps.*laps).size() != n) {
          failures.push_back("repetitions ran different laps");
          return 0.0;
        }
        values.push_back((rep.laps.*laps)[i]);
      }
      total += median(values);
    }
    return total;
  };
  Times times;
  times.setup = stage(&Laps::setup);
  times.measured = stage(&Laps::measured);
  times.wall = times.setup + times.measured + stage(&Laps::tail);
  return times;
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(metrics[i].name) + ": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": " +
           quoted(metrics[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

int print_report(const RunSummary& summary) {
  const std::vector<Rep>& untraced = *summary.untraced;
  const std::vector<Rep>& traced = *summary.traced;
  const Rep& first = untraced.front();
  std::vector<std::string> failures = summary.failures;

  // End-to-end: per-lap medians over the untraced repetitions.
  const Times times = lap_medians(untraced, failures);
  Values e2e;
  e2e["setup_s"] = times.setup;
  e2e["wall_s"] = times.wall;
  e2e["ops_per_s"] = ratio(static_cast<double>(first.completed),
                           times.measured);
  e2e["peak_rss_mb"] = summary.peak_rss_mib;
  e2e["sim_p50_s"] = value_or_zero(first.simulated, "sim_p50_s");
  e2e["measured_s"] = times.measured;
  for (const char* name :
       {"sim_p99_s", "fail_share", "sim_publish_p50_s"}) {
    if (first.simulated.contains(name)) e2e[name] = first.simulated.at(name);
  }

  // Per-layer: medians over the traced repetitions.
  Values layer;
  std::set<std::string> not_exercised(first.not_exercised.begin(),
                                      first.not_exercised.end());
  if (summary.trace) {
    for (const MetricDef& def : per_layer_metrics()) {
      layer[def.name] = median_of(traced, [&](const Rep& r) {
        return value_or_zero(r.layer, def.name);
      });
    }
    layer["sim.events_per_s"] = median_of(traced, [](const Rep& r) {
      return ratio(value_or_zero(r.layer, "sim.events"),
                   value_or_zero(r.layer, "sim.drive_s"));
    });
    layer["crypto.sha256_mib_per_s"] = summary.sha256_mib_per_s;
    layer["trace.overhead_share"] =
        lap_medians(traced, failures).wall / times.wall - 1.0;
    for (const auto& name : not_exercised) layer[name] = 0.0;
  }

  // Human-readable lines.
  std::printf("perfbench %s seed=%llu size=%s trace=%d reps=%zu+%zu "
              "run_s=%.2f\n",
              summary.workload.c_str(),
              static_cast<unsigned long long>(summary.seed),
              summary.size == Size::kFull ? "full" : "tiny",
              summary.trace ? 1 : 0, untraced.size(), traced.size(),
              summary.run_s);
  std::printf("operations: attempted %llu, failed %llu, completed %llu "
              "per repetition\n",
              static_cast<unsigned long long>(first.attempted),
              static_cast<unsigned long long>(first.failed),
              static_cast<unsigned long long>(first.completed));
  std::printf("-- end to end (per-lap medians over %zu untraced "
              "repetitions)\n",
              untraced.size());
  for (const auto& defs : {end_to_end_metrics(), extra_metrics()}) {
    for (const MetricDef& def : defs) {
      if (!e2e.contains(def.name)) continue;
      std::printf("%-32s %14.6g %s\n", def.name, e2e[def.name], def.unit);
    }
  }
  std::printf("-- host seconds per repetition (setup, measured, wall)\n");
  for (const auto* reps : {&untraced, &traced}) {
    for (const Rep& rep : *reps)
      std::printf("%-9s %10.4f %10.4f %10.4f\n",
                  reps == &untraced ? "untraced" : "traced",
                  sum(rep.laps.setup), sum(rep.laps.measured),
                  sum(rep.laps.setup) + sum(rep.laps.measured) +
                      sum(rep.laps.tail));
  }
  std::printf("-- simulated (exact for the seed)\n");
  for (const auto& [name, v] : first.simulated)
    std::printf("%-32s %14.6g\n", name.c_str(), v);
  std::printf("-- samples\n");
  for (const auto& [name, n] : first.samples)
    std::printf("%-32s %14llu\n", name.c_str(),
                static_cast<unsigned long long>(n));
  if (summary.trace) {
    std::printf("-- per layer (medians over %zu traced repetitions)\n",
                traced.size());
    for (const MetricDef& def : per_layer_metrics()) {
      std::printf("%-32s %14.6g %s%s\n", def.name, layer[def.name], def.unit,
                  not_exercised.contains(def.name) ? "  (not exercised)" : "");
    }
    std::printf("-- host self time per layer (s per traced repetition)\n");
    for (const auto& [name, s] : summary.self_s)
      std::printf("%-32s %14.6g s\n", name.c_str(), s);
    for (const auto& entry : kUnmeasured)
      std::printf("%-32s not measurable from outside: %s\n", entry[0],
                  entry[1]);
  }
  // The result line's metrics.
  std::vector<Metric> result;
  for (const MetricDef& def :
       summary.trace ? per_layer_metrics() : end_to_end_metrics()) {
    const double v = summary.trace ? layer[def.name] : e2e[def.name];
    if (!std::isfinite(v))
      failures.push_back(std::string(def.name) + " is not finite");
    result.push_back({def.name, def.unit, std::isfinite(v) ? v : 0.0});
  }
  for (const std::string& failure : failures)
    std::printf("CHECK FAILED: %s\n", failure.c_str());

  // One record per run: sizes, counts, every metric with its unit.
  std::vector<Metric> all;
  for (const auto& defs : {end_to_end_metrics(), extra_metrics()}) {
    for (const MetricDef& def : defs) {
      if (e2e.contains(def.name))
        all.push_back({def.name, def.unit, e2e[def.name]});
    }
  }
  if (summary.trace) {
    for (const MetricDef& def : per_layer_metrics())
      all.push_back({def.name, def.unit, layer[def.name]});
    for (const auto& [name, s] : summary.self_s)
      all.push_back({"self_s." + name, "s", s});
  }
  std::ostringstream record;
  record << "{\"workload\": " << quoted(summary.workload)
         << ", \"seed\": " << summary.seed
         << ", \"seconds\": " << number(summary.seconds)
         << ", \"trace\": " << (summary.trace ? 1 : 0)
         << ", \"size\": "
         << quoted(summary.size == Size::kFull ? "full" : "tiny")
         << ", \"build_type\": " << quoted(summary.build_type)
         << ", \"nproc\": " << summary.nproc
         << ", \"repetitions\": {\"untraced\": " << untraced.size()
         << ", \"traced\": " << traced.size() << "}, \"sizes\": {";
  bool comma = false;
  for (const auto& [name, n] : summary.sizes) {
    record << (comma ? ", " : "") << quoted(name) << ": " << n;
    comma = true;
  }
  record << "}, \"samples\": {";
  comma = false;
  for (const auto& [name, n] : first.samples) {
    record << (comma ? ", " : "") << quoted(name) << ": " << n;
    comma = true;
  }
  record << "}, \"simulated\": {";
  comma = false;
  for (const auto& [name, v] : first.simulated) {
    record << (comma ? ", " : "") << quoted(name) << ": " << number(v);
    comma = true;
  }
  record << "}, \"attempted\": " << first.attempted
         << ", \"failed\": " << first.failed << ", \"not_exercised\": [";
  comma = false;
  for (const auto& name : not_exercised) {
    record << (comma ? ", " : "") << quoted(name);
    comma = true;
  }
  record << "], \"check_failures\": [";
  comma = false;
  for (const auto& failure : failures) {
    record << (comma ? ", " : "") << quoted(failure);
    comma = true;
  }
  record << "], \"metrics\": " << metrics_json(all) << "}";
  std::printf("RECORD %s\n", record.str().c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failures.empty() ? "true" : "false",
              static_cast<unsigned long long>(first.attempted),
              static_cast<unsigned long long>(first.failed),
              metrics_json(result).c_str());
  std::fflush(stdout);
  return failures.empty() ? 0 : 1;
}

}  // namespace perfbench
