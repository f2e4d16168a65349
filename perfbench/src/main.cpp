// perfbench: runs one workload of the repo benchmark.
//
//   perfbench --workload census|gateway_day|publish_retrieve --seed N
//             --seconds S --trace 0|1 [--size full|tiny] [--spans PATH]
//
// Repeats the whole workload until S host seconds have passed (at least
// three times at full size) and prints the metrics by name with units,
// then one RECORD line, then the result as the last line. With --trace 1
// it runs an untimed warm-up repetition, then alternates traced and
// untraced repetitions, and prints the per-layer metrics instead. Exits 1
// when an output check fails and 2 on bad arguments or an unoptimized or
// sanitizer build.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"
#include "crypto/sha256.h"
#include "report.h"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  Size size = Size::kFull;
  std::string spans_path;
};

bool parse_uint(const char* text, std::uint64_t& out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0' || text[0] == '-') return false;
  out = v;
  return true;
}

bool parse_args(int argc, char** argv, Options& options) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) return false;
    ++i;
    std::uint64_t n = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_uint(value, options.seed)) return false;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_uint(value, n) || n == 0 || n > 3600) return false;
      options.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!parse_uint(value, n) || n > 1) return false;
      options.trace = n == 1;
      have_trace = true;
    } else if (flag == "--size") {
      if (std::strcmp(value, "full") == 0) {
        options.size = Size::kFull;
      } else if (std::strcmp(value, "tiny") == 0) {
        options.size = Size::kTiny;
      } else {
        return false;
      }
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds && have_trace;
}

// Timings from an unoptimized or instrumented build would be recorded
// as if they were the program's.
bool timing_build() {
#if !defined(NDEBUG) || !defined(__OPTIMIZE__) || \
    defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return false;
#else
  const std::string type = PERFBENCH_BUILD_TYPE;
  return type != "Debug" &&
         std::string(PERFBENCH_CXX_FLAGS).find("-fsanitize") ==
             std::string::npos;
#endif
}

struct Workload {
  const char* name;
  Rep (*run)(const RepContext&);
  std::map<std::string, std::uint64_t> (*sizes)(Size);
};

const Workload* find_workload(const std::string& name) {
  static const Workload kWorkloads[] = {
      {"census", run_census, census_sizes},
      {"gateway_day", run_gateway_day, gateway_day_sizes},
      {"publish_retrieve", run_publish_retrieve, publish_retrieve_sizes},
  };
  for (const Workload& workload : kWorkloads)
    if (name == workload.name) return &workload;
  return nullptr;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Times crypto::sha256 over the workload's own payloads, three passes,
// inside a "crypto.sha256" span; returns the median MiB/s (0 if none).
// Every pass must produce the first pass's digests.
double time_sha256(const std::vector<std::vector<std::uint8_t>>& payloads,
                   SpanLog& spans, std::vector<std::string>& failures) {
  double bytes = 0;
  for (const auto& p : payloads) bytes += static_cast<double>(p.size());
  if (bytes == 0) return 0;
  std::vector<double> rates;
  std::vector<ipfs::crypto::Sha256Digest> first, digests(payloads.size());
  for (int pass = 0; pass < 3; ++pass) {
    SpanLog::Scope span(spans, "crypto.sha256");
    for (std::size_t i = 0; i < payloads.size(); ++i)
      digests[i] = ipfs::crypto::sha256(payloads[i]);
    rates.push_back(bytes / (1024.0 * 1024.0) / span.close());
    if (pass == 0) first = digests;
    if (digests != first)
      failures.push_back("sha256 digests differ between passes");
  }
  return median(rates);
}

// Every repetition, traced or not, must reproduce the first one's
// simulated outputs exactly.
void check_same_outputs(const Rep& first, const Rep& rep, bool traced,
                        std::vector<std::string>& failures) {
  if (rep.simulated == first.simulated && rep.samples == first.samples &&
      rep.attempted == first.attempted && rep.failed == first.failed &&
      rep.completed == first.completed)
    return;
  failures.push_back(traced ? "traced simulated outputs differ from the "
                              "untraced run's"
                            : "simulated outputs differ between repetitions");
}

int run(const Options& options) {
  const Workload& workload = *find_workload(options.workload);
  const auto run_rep = workload.run;
  const auto run_start = Clock::now();
  SpanLog untraced_spans(false, run_start);
  SpanLog traced_spans(true, run_start);
  const std::size_t min_reps = options.size == Size::kFull ? 3 : 1;

  std::vector<Rep> untraced, traced;
  std::vector<double> sha_rates;
  std::vector<std::string> failures;
  const auto untraced_rep = [&] {
    return run_rep({options.seed, options.size, untraced_spans});
  };
  // With tracing, a warm-up repetition comes first and is not timed: a
  // process's first repetition also pays for growing the heap, which would
  // count against whichever side ran first. Its outputs are the reference.
  std::vector<Rep> warmup;
  if (options.trace) warmup.push_back(untraced_rep());
  for (;;) {
    if (options.trace) {
      traced_spans.set_rep(static_cast<int>(traced.size()));
      traced.push_back(run_rep(
          {options.seed, options.size, traced_spans, /*keep_payloads=*/true}));
      sha_rates.push_back(
          time_sha256(traced.back().payloads, traced_spans, failures));
      traced.back().payloads.clear();
    }
    untraced.push_back(untraced_rep());
    const std::size_t reps = options.trace ? 1 : min_reps;
    if (untraced.size() >= reps && seconds_since(run_start) >= options.seconds)
      break;
  }

  const Rep& reference = warmup.empty() ? untraced.front() : warmup.front();
  for (const Rep& rep : untraced)
    check_same_outputs(reference, rep, false, failures);
  for (const Rep& rep : traced)
    check_same_outputs(reference, rep, true, failures);
  for (const auto* reps : {&warmup, &untraced, &traced}) {
    for (const Rep& rep : *reps)
      failures.insert(failures.end(), rep.check_failures.begin(),
                      rep.check_failures.end());
  }
  // Each repetition repeats the same failures; report each once.
  std::vector<std::string> unique;
  for (const std::string& failure : failures) {
    if (std::find(unique.begin(), unique.end(), failure) == unique.end())
      unique.push_back(failure);
  }

  RunSummary summary;
  summary.workload = options.workload;
  summary.seed = options.seed;
  summary.seconds = options.seconds;
  summary.trace = options.trace;
  summary.size = options.size;
  summary.sizes = workload.sizes(options.size);
  summary.build_type = PERFBENCH_BUILD_TYPE;
  summary.nproc = std::thread::hardware_concurrency();
  summary.peak_rss_mib = peak_rss_mib();
  summary.run_s = seconds_since(run_start);
  summary.untraced = &untraced;
  summary.traced = &traced;
  summary.sha256_mib_per_s = median(sha_rates);
  summary.self_s = traced_spans.self_seconds_by_layer(
      static_cast<int>(traced.size()));
  summary.failures = unique;
  if (options.trace && !options.spans_path.empty())
    traced_spans.write_jsonl(options.spans_path);
  return print_report(summary);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::parse_args(argc, argv, options) ||
      perfbench::find_workload(options.workload) == nullptr) {
    std::fprintf(stderr,
                 "usage: perfbench --workload census|gateway_day|"
                 "publish_retrieve --seed N --seconds S --trace 0|1 "
                 "[--size full|tiny] [--spans PATH]\n");
    return 2;
  }
  if (!perfbench::timing_build()) {
    std::fprintf(stderr,
                 "perfbench: refusing to report timings from a %s build "
                 "(flags: %s)\n",
                 PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS);
    return 2;
  }
  return perfbench::run(options);
}
