#include "stats/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace ipfs::stats {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument("empty sample");
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("p out of range");
  std::sort(samples.begin(), samples.end());
  if (samples.size() == 1) return samples[0];
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

double mean(std::span<const double> samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double pearson_correlation(std::span<const double> x,
                           std::span<const double> y) {
  if (x.size() != y.size() || x.size() < 2)
    throw std::invalid_argument("mismatched or tiny samples");
  const double mx = mean(x);
  const double my = mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

Cdf::Cdf(std::vector<double> samples) : sorted_(std::move(samples)) {
  std::sort(sorted_.begin(), sorted_.end());
}

double Cdf::at(double value) const {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), value);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double Cdf::percentile(double p) const {
  // Degrade like at()/curve() instead of throwing: empty distributions
  // are routine (a bench phase with zero failures still asks for p50).
  if (sorted_.empty()) return 0.0;
  return stats::percentile(sorted_, p);
}

std::vector<CdfPoint> Cdf::curve(std::size_t points) const {
  std::vector<CdfPoint> out;
  if (sorted_.empty() || points == 0) return out;
  out.reserve(points);
  for (std::size_t i = 1; i <= points; ++i) {
    const double q = 100.0 * static_cast<double>(i) /
                     static_cast<double>(points);
    out.push_back({percentile(q), q / 100.0});
  }
  return out;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  if (bins == 0 || hi <= lo) throw std::invalid_argument("bad histogram");
}

void Histogram::add(double value) {
  // NaN survives std::clamp, and casting it to an index is UB; count it
  // separately rather than corrupting a bin.
  if (std::isnan(value)) {
    ++nan_count_;
    return;
  }
  const double span = hi_ - lo_;
  double idx = (value - lo_) / span * static_cast<double>(counts_.size());
  idx = std::clamp(idx, 0.0, static_cast<double>(counts_.size()) - 1.0);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

double Histogram::bin_low(std::size_t bin) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(bin) /
                   static_cast<double>(counts_.size());
}

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  cells.resize(header_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::render() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t i = 0; i < header_.size(); ++i)
    widths[i] = header_[i].size();
  for (const auto& row : rows_)
    for (std::size_t i = 0; i < row.size(); ++i)
      widths[i] = std::max(widths[i], row[i].size());

  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    out << "|";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      out << ' ' << cells[i];
      out << std::string(widths[i] - cells[i].size(), ' ') << " |";
    }
    out << '\n';
  };
  emit_row(header_);
  out << "|";
  for (const std::size_t w : widths) out << std::string(w + 2, '-') << "|";
  out << '\n';
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

std::string render_cdf_series(const std::string& label, const Cdf& cdf,
                              std::size_t points) {
  std::ostringstream out;
  for (const auto& point : cdf.curve(points)) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s\t%.4f\t%.3f\n", label.c_str(),
                  point.value, point.cumulative_fraction);
    out << buf;
  }
  return out.str();
}

std::string format_seconds(double seconds) {
  char buf[32];
  if (seconds < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.0f us", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.0f ms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f s", seconds);
  }
  return buf;
}

std::string format_bytes(double bytes) {
  char buf[32];
  if (bytes < 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.0f B", bytes);
  } else if (bytes < 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.1f KB", bytes / 1024.0);
  } else if (bytes < 1024.0 * 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.1f MB", bytes / (1024.0 * 1024.0));
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f GB",
                  bytes / (1024.0 * 1024.0 * 1024.0));
  }
  return buf;
}

std::string format_percent(double fraction, int decimals) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f %%", decimals, fraction * 100.0);
  return buf;
}

}  // namespace ipfs::stats
