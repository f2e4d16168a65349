// Statistics helpers shared by the measurement tooling and benches:
// percentiles, empirical CDFs, histograms, correlation, and plain-text
// table/figure rendering.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace ipfs::stats {

// Percentile via linear interpolation on the sorted sample (p in [0,100]).
double percentile(std::vector<double> samples, double p);

double mean(std::span<const double> samples);
double pearson_correlation(std::span<const double> x,
                           std::span<const double> y);

// Empirical CDF evaluated at the sample points.
struct CdfPoint {
  double value;
  double cumulative_fraction;
};

class Cdf {
 public:
  explicit Cdf(std::vector<double> samples);

  // Fraction of samples <= value.
  double at(double value) const;
  double percentile(double p) const;
  std::size_t sample_count() const { return sorted_.size(); }

  // Evaluates the CDF at `points` evenly spaced quantiles for plotting.
  std::vector<CdfPoint> curve(std::size_t points = 50) const;

 private:
  std::vector<double> sorted_;
};

// Fixed-width histogram over [lo, hi); out-of-range values (including
// +/-inf) clamp to the edge bins. NaN is counted in nan_count() and does
// not land in any bin.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double value);
  std::uint64_t count(std::size_t bin) const { return counts_[bin]; }
  std::size_t bins() const { return counts_.size(); }
  double bin_low(std::size_t bin) const;
  std::uint64_t total() const { return total_; }
  std::uint64_t nan_count() const { return nan_count_; }

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  std::uint64_t nan_count_ = 0;
};

// ---------------------------------------------------------------------------
// Plain-text rendering. Benches print the same rows/series the paper's
// tables and figures report.
// ---------------------------------------------------------------------------

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);
  std::string render() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Renders a CDF curve as "value<TAB>fraction" lines prefixed by a label,
// the machine-readable series a figure would plot.
std::string render_cdf_series(const std::string& label, const Cdf& cdf,
                              std::size_t points = 20);

std::string format_seconds(double seconds);
std::string format_bytes(double bytes);
std::string format_percent(double fraction, int decimals = 1);

}  // namespace ipfs::stats
