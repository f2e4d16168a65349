// Shared per-layer plumbing: driving the simulation, reading the
// program's registry, the registry export, and percentiles.
#include <algorithm>
#include <cmath>
#include <ostream>
#include <streambuf>

#include "bench.h"
#include "stats/jsonl.h"
#include "world/world.h"

namespace perfbench {

namespace {

// Discards what it is given and counts the bytes, so the export is timed
// without disk I/O or a buffer the size of the export.
class CountingBuf : public std::streambuf {
 public:
  std::uint64_t bytes() const { return bytes_; }

 protected:
  int_type overflow(int_type ch) override {
    if (ch != traits_type::eof()) ++bytes_;
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<std::uint64_t>(n);
    return n;
  }

 private:
  std::uint64_t bytes_ = 0;
};

template <typename Fn>
std::uint64_t timed_drive(SpanLog& spans, Rep& rep,
                          const std::string& span_name, Fn&& run) {
  SpanLog::Scope span(spans, span_name);
  const std::uint64_t events = run();
  span.add_events(events);
  rep.layer["sim.events"] += static_cast<double>(events);
  rep.layer["sim.drive_s"] += span.close();
  return events;
}

}  // namespace

std::uint64_t drive_until(ipfs::world::World& world, ipfs::sim::Time deadline,
                          SpanLog& spans, Rep& rep,
                          const std::string& span_name) {
  return timed_drive(spans, rep, span_name,
                     [&] { return world.run_until(deadline); });
}

std::uint64_t drive(ipfs::world::World& world, SpanLog& spans, Rep& rep,
                    const std::string& span_name) {
  return timed_drive(spans, rep, span_name, [&] { return world.run(); });
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n - 1e-9));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

std::uint64_t samples_beyond(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return n - std::min(rank, n);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double sum(const std::vector<double>& values) {
  double total = 0;
  for (const double v : values) total += v;
  return total;
}

void record_latency(Rep& rep, const std::string& prefix,
                    const std::vector<double>& seconds, bool with_p99) {
  rep.simulated[prefix + "p50_s"] = percentile(seconds, 50);
  rep.samples[prefix + "samples"] = seconds.size();
  if (with_p99) {
    rep.simulated[prefix + "p99_s"] = percentile(seconds, 99);
    rep.samples[prefix + "p99_samples_beyond"] =
        samples_beyond(seconds.size(), 99);
  }
}

void read_registry(const ipfs::metrics::Registry& registry, Rep& rep) {
  const auto count = [&](const std::string& name) {
    return static_cast<double>(registry.counter_value(name));
  };
  Values& out = rep.layer;

  // Fabric and transport.
  out["net.rpc_timeout_share"] =
      ratio(count("net.rpc_timeouts"), count("net.rpcs_sent"));
  out["net.dial_fail_share"] =
      ratio(count("net.dials_failed"), count("net.dials_attempted"));
  // The simulated fabric counts no drops of its own here; workloads with
  // a partition add the partition decorator's drops.
  out["transport.tx.dropped"] += count("transport.tx.dropped");

  // DHT.
  out["dht.lookup.rpc_fail_share"] =
      ratio(count("dht.lookup.rpcs_failed"), count("dht.lookup.rpcs_sent"));

  // Node / routing.
  out["retrieve.provider_fallbacks"] = count("retrieve.provider_fallbacks");

  // Bitswap.
  out["bitswap.bytes_received"] = count("bitswap.bytes_received");
  out["bitswap.dont_have_share"] =
      ratio(count("bitswap.dont_have.rx"), count("bitswap.want_have.tx"));

  // Gateway: each tier's requests over gateway.requests.
  const double requests = count("gateway.requests");
  const auto tier = [&](const char* name) {
    return count(std::string("gateway.tier.") + name + ".requests");
  };
  out["gateway.edge_hit_share"] = ratio(tier("nginx_cache"), requests);
  out["gateway.node_store_share"] = ratio(tier("node_store"), requests);
  out["gateway.origin_hit_share"] = ratio(tier("origin_cache"), requests);
  out["gateway.p2p_share"] = ratio(tier("p2p"), requests);
  const double absorbed =
      tier("nginx_cache") + tier("node_store") + tier("origin_cache");
  out["gateway.fleet_absorb_share"] = ratio(absorbed, absorbed + tier("p2p"));
  out["gateway.p2p.coalesced"] = count("gateway.p2p.coalesced");
  out["gateway.negative.hits"] = count("gateway.negative.hits");
  out["gateway.fleet.spills"] = count("gateway.fleet.spills");
  rep.samples["gateway.requests"] = static_cast<std::uint64_t>(requests);
  rep.samples["gateway.tier_sum"] = static_cast<std::uint64_t>(
      absorbed + tier("p2p") + tier("failed"));

  // Metrics layer.
  out["metrics.trace_events"] = static_cast<double>(registry.events().size());
  out["metrics.trace_dropped"] = static_cast<double>(registry.trace_dropped());
  double samples = 0;
  for (const auto& [name, histogram] : registry.histograms())
    samples += static_cast<double>(histogram.count());
  out["metrics.histogram_samples"] = samples;
}

void export_registry(const ipfs::metrics::Registry& registry, SpanLog& spans,
                     Rep& rep) {
  SpanLog::Scope span(spans, "metrics.export");
  CountingBuf sink;
  std::ostream out(&sink);
  ipfs::stats::export_registry_jsonl(registry, out);
  rep.layer["metrics.export_s"] = span.close();
  rep.samples["metrics.export_bytes"] = sink.bytes();
}

}  // namespace perfbench
