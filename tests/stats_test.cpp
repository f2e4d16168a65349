#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "stats/jsonl.h"
#include "stats/stats.h"

namespace ipfs::stats {
namespace {

TEST(PercentileTest, MedianOfOddSample) {
  EXPECT_DOUBLE_EQ(percentile({3, 1, 2}, 50), 2.0);
}

TEST(PercentileTest, InterpolatesBetweenPoints) {
  EXPECT_DOUBLE_EQ(percentile({0, 10}, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile({0, 10}, 90), 9.0);
}

TEST(PercentileTest, Extremes) {
  EXPECT_DOUBLE_EQ(percentile({5, 1, 9}, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({5, 1, 9}, 100), 9.0);
}

TEST(PercentileTest, SingleSample) {
  EXPECT_DOUBLE_EQ(percentile({7}, 37), 7.0);
}

TEST(PercentileTest, RejectsBadInput) {
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
  EXPECT_THROW(percentile({1}, -1), std::invalid_argument);
  EXPECT_THROW(percentile({1}, 101), std::invalid_argument);
}

TEST(CdfTest, FractionAtValue) {
  const Cdf cdf({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(4.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.at(100.0), 1.0);
}

TEST(CdfTest, CurveIsMonotonic) {
  const Cdf cdf({5, 1, 9, 2, 8, 3, 7, 4, 6});
  const auto curve = cdf.curve(10);
  ASSERT_EQ(curve.size(), 10u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i - 1].value, curve[i].value);
    EXPECT_LT(curve[i - 1].cumulative_fraction, curve[i].cumulative_fraction);
  }
  EXPECT_DOUBLE_EQ(curve.back().cumulative_fraction, 1.0);
}

TEST(CdfTest, EmptyDistributionDegradesToZero) {
  // Empty distributions are routine (a bench phase with zero failures
  // still asks for p50); only the free-function percentile() throws.
  const Cdf cdf({});
  EXPECT_EQ(cdf.sample_count(), 0u);
  EXPECT_DOUBLE_EQ(cdf.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.0);
  EXPECT_TRUE(cdf.curve(10).empty());
}

TEST(PearsonTest, PerfectCorrelation) {
  const std::vector<double> x = {1, 2, 3, 4};
  const std::vector<double> y = {2, 4, 6, 8};
  EXPECT_NEAR(pearson_correlation(x, y), 1.0, 1e-12);
}

TEST(PearsonTest, PerfectAntiCorrelation) {
  const std::vector<double> x = {1, 2, 3, 4};
  const std::vector<double> y = {8, 6, 4, 2};
  EXPECT_NEAR(pearson_correlation(x, y), -1.0, 1e-12);
}

TEST(PearsonTest, ConstantSeriesIsZero) {
  const std::vector<double> x = {1, 2, 3};
  const std::vector<double> y = {5, 5, 5};
  EXPECT_DOUBLE_EQ(pearson_correlation(x, y), 0.0);
}

TEST(HistogramTest, BinsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.5);
  h.add(-3.0);   // clamps to first bin
  h.add(42.0);   // clamps to last bin
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bin_low(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_low(9), 9.0);
}

TEST(HistogramTest, NanIsCountedAsideAndInfinitiesClampToEdges) {
  Histogram h(0.0, 10.0, 10);
  h.add(std::nan(""));
  EXPECT_EQ(h.nan_count(), 1u);
  EXPECT_EQ(h.total(), 0u);  // NaN lands in no bin
  for (std::size_t bin = 0; bin < h.bins(); ++bin)
    EXPECT_EQ(h.count(bin), 0u);

  h.add(-std::numeric_limits<double>::infinity());
  h.add(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(9), 1u);
  EXPECT_EQ(h.total(), 2u);
  EXPECT_EQ(h.nan_count(), 1u);
}

TEST(HistogramTest, RejectsDegenerateRanges) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(TextTableTest, RendersAlignedColumns) {
  TextTable table({"Region", "p50"});
  table.add_row({"eu_central_1", "1.81 s"});
  table.add_row({"us_west_1", "2.48 s"});
  const auto text = table.render();
  EXPECT_NE(text.find("Region"), std::string::npos);
  EXPECT_NE(text.find("eu_central_1"), std::string::npos);
  EXPECT_NE(text.find("|---"), std::string::npos);
}

TEST(FormatTest, HumanReadableUnits) {
  EXPECT_EQ(format_seconds(0.0000005), "0 us");
  EXPECT_EQ(format_seconds(0.012), "12 ms");
  EXPECT_EQ(format_seconds(33.8), "33.80 s");
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(1536), "1.5 KB");
  EXPECT_EQ(format_bytes(0.5 * 1024 * 1024), "512.0 KB");
  EXPECT_EQ(format_bytes(1.5 * 1024 * 1024), "1.5 MB");
  EXPECT_EQ(format_percent(0.285), "28.5 %");
}

}  // namespace
}  // namespace ipfs::stats
