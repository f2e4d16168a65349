// Metric definitions and the run's printed report.
#pragma once

#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The result line's metrics: end-to-end with --trace 0, per-layer with
// --trace 1. BENCHMARK.json lists the same names and units.
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

struct RunSummary {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  Size size = Size::kFull;
  std::map<std::string, std::uint64_t> sizes;
  std::string build_type;
  unsigned nproc = 0;
  double peak_rss_mib = 0;
  double run_s = 0;
  const std::vector<Rep>* untraced = nullptr;
  const std::vector<Rep>* traced = nullptr;
  double sha256_mib_per_s = 0;
  std::map<std::string, double> self_s;
  std::vector<std::string> failures;
};

// Prints the metrics, the RECORD line and the result line; returns the
// process exit code (0 when every output check passed).
int print_report(const RunSummary& summary);

}  // namespace perfbench
