// The repo benchmark: one process runs one named workload from a seed,
// repeating the whole workload (set-up, measured phase, output checks,
// registry export, teardown) until its time budget is spent, and reports
// host times as per-lap medians over the repetitions (see Laps). Host time
// is taken only from outside the program: timers and spans wrap the
// benchmark's own calls into each module's public functions. Simulated
// quantities come from per-operation results and registry counters, and
// are exact for a given seed.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "metrics/metrics.h"
#include "sim/time.h"

namespace ipfs::world {
class World;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);

// Full is the benchmark; tiny runs the same code paths on small inputs
// for the benchmark's own tests.
enum class Size { kFull, kTiny };

// ----------------------------------------------------------------- spans

// Host-time spans around the benchmark's calls into the program. Always
// timed (set-up and wall time need the clock either way); names, parents
// and event counts are kept only when tracing is on. Spans stay in memory
// and are written out when the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;  // "<layer>.<what>", e.g. "world.build"
    double start_s = 0;
    double end_s = 0;
    int parent = -1;   // the enclosing span's index, -1 at top level
    std::uint64_t events = 0;  // simulator events executed inside
    int rep = 0;
  };

  class Scope {
   public:
    Scope(SpanLog& log, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void add_events(std::uint64_t n) { events_ += n; }
    // Closes the span early and returns its duration (host seconds).
    double close();

   private:
    SpanLog& log_;
    std::string name_;
    Clock::time_point start_;
    int index_ = -1;
    int saved_parent_ = -1;
    std::uint64_t events_ = 0;
    double duration_ = -1;
  };

  SpanLog(bool enabled, Clock::time_point origin)
      : enabled_(enabled), origin_(origin) {}

  void set_rep(int rep) { rep_ = rep; }

  // Host seconds per layer, each span minus the time its children cover,
  // summed by the name's layer prefix; divided by `reps`.
  std::map<std::string, double> self_seconds_by_layer(int reps) const;

  void write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  int open_ = -1;
  int rep_ = 0;
};

// ------------------------------------------------------------- one rep

using Values = std::map<std::string, double>;

// Host seconds of one repetition, split into laps that tile it in
// execution order: set-up steps, slices of the simulated drive, then the
// checks, registry export and teardown. Every repetition runs the same
// laps, so a run takes each lap's median across repetitions and sums them:
// a slowdown of the host that hits one repetition while another runs the
// same lap drops out.
struct Laps {
  std::vector<double> setup;
  std::vector<double> measured;
  std::vector<double> tail;
};

// Splits a repetition into laps: lap() returns the host seconds since the
// previous lap (or construction).
class Stopwatch {
 public:
  double lap();

 private:
  Clock::time_point mark_ = Clock::now();
};

// What one repetition of a workload produced.
struct Rep {
  Laps laps;

  // Operations of the measured phase: attempted, failed, and the unit
  // ops_per_s counts (peers crawled, requests, publishes + retrievals).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t completed = 0;

  // Exact for a given seed: every repetition, traced or not, must
  // reproduce these bit for bit.
  Values simulated;
  // Sample counts behind the simulated percentiles (and other sizes).
  std::map<std::string, std::uint64_t> samples;
  // Per-layer numbers: registry counts and shares (exact) and host
  // seconds (medianed over repetitions).
  Values layer;
  // Per-layer names this workload does not exercise.
  std::vector<std::string> not_exercised;

  // Failed output checks; empty when the outputs are correct.
  std::vector<std::string> check_failures;

  // Payloads the traced run hashes to time crypto::sha256 (kept only
  // when tracing, outside the repetition's wall time).
  std::vector<std::vector<std::uint8_t>> payloads;
};

double sum(const std::vector<double>& values);

struct RepContext {
  std::uint64_t seed = 0;
  Size size = Size::kFull;
  SpanLog& spans;
  bool keep_payloads = false;
};

// The workloads. Each runs one full repetition.
Rep run_census(const RepContext& ctx);
Rep run_gateway_day(const RepContext& ctx);
Rep run_publish_retrieve(const RepContext& ctx);

// Workload sizes for the record (peers, rounds, requests, ...).
std::map<std::string, std::uint64_t> census_sizes(Size size);
std::map<std::string, std::uint64_t> gateway_day_sizes(Size size);
std::map<std::string, std::uint64_t> publish_retrieve_sizes(Size size);

// ------------------------------------------------------- shared helpers

// Drives the simulation through World::run_until, inside a "sim.drive"
// span, and accumulates sim.events and sim.drive_s into `rep`.
std::uint64_t drive_until(ipfs::world::World& world, ipfs::sim::Time deadline,
                          SpanLog& spans, Rep& rep,
                          const std::string& span_name = "sim.drive");
// Same through World::run (drains every foreground event).
std::uint64_t drive(ipfs::world::World& world, SpanLog& spans, Rep& rep,
                    const std::string& span_name = "sim.drive");

// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
double percentile(std::vector<double> values, double p);
// Samples strictly beyond the nearest-rank p-th percentile position.
std::uint64_t samples_beyond(std::size_t n, double p);
double median(std::vector<double> values);
double ratio(double num, double den);

// Reads every registry number the benchmark reports, in one place:
// network/transport, DHT, Bitswap, gateway and metrics-layer counters.
void read_registry(const ipfs::metrics::Registry& registry, Rep& rep);

// Times stats::export_registry_jsonl into a byte-counting sink inside a
// "metrics.export" span; records metrics.export_s.
void export_registry(const ipfs::metrics::Registry& registry, SpanLog& spans,
                     Rep& rep);

// Records a simulated percentile set (p50 and p99 with sample counts).
void record_latency(Rep& rep, const std::string& prefix,
                    const std::vector<double>& seconds, bool with_p99);

}  // namespace perfbench
