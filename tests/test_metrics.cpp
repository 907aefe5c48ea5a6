#include <gtest/gtest.h>

#include "metrics/cdf.h"
#include "metrics/histogram.h"
#include "metrics/timeseries.h"

namespace erms::metrics {
namespace {

TEST(Histogram, BucketsAndBounds) {
  Histogram h(0.0, 10.0, 5);
  h.add(-1.0);  // underflow
  h.add(0.0);
  h.add(1.9);
  h.add(5.0);
  h.add(10.0);  // overflow (hi is exclusive)
  h.add(99.0);  // overflow
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.bucket(0), 2u);  // 0.0 and 1.9
  EXPECT_EQ(h.bucket(2), 1u);  // 5.0
  EXPECT_DOUBLE_EQ(h.bucket_lo(2), 4.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(2), 6.0);
}

TEST(Histogram, RejectsBadRange) {
  EXPECT_THROW(Histogram(1.0, 1.0, 5), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Histogram, AsciiRendersBars) {
  Histogram h(0.0, 2.0, 2);
  h.add(0.5);
  h.add(0.6);
  h.add(1.5);
  const std::string art = h.ascii(10);
  EXPECT_NE(art.find('#'), std::string::npos);
}

TEST(TimeSeries, StepInterpolation) {
  TimeSeries ts;
  ts.record(sim::SimTime{1'000'000}, 10.0);
  ts.record(sim::SimTime{3'000'000}, 30.0);
  EXPECT_DOUBLE_EQ(ts.value_at(sim::SimTime{0}), 10.0);  // before first
  EXPECT_DOUBLE_EQ(ts.value_at(sim::SimTime{1'000'000}), 10.0);
  EXPECT_DOUBLE_EQ(ts.value_at(sim::SimTime{2'999'999}), 10.0);
  EXPECT_DOUBLE_EQ(ts.value_at(sim::SimTime{3'000'000}), 30.0);
  EXPECT_DOUBLE_EQ(ts.value_at(sim::SimTime{9'000'000}), 30.0);
}

TEST(TimeSeries, TimeWeightedMean) {
  TimeSeries ts;
  ts.record(sim::SimTime{0}, 0.0);
  ts.record(sim::SimTime{1'000'000}, 10.0);
  // [0s,1s) at 0, [1s,2s) at 10 → mean over [0s,2s] is 5.
  EXPECT_NEAR(ts.time_weighted_mean(sim::SimTime{0}, sim::SimTime{2'000'000}), 5.0, 1e-9);
}

TEST(TimeSeries, ResampleBounds) {
  TimeSeries ts;
  for (int i = 0; i < 100; ++i) {
    ts.record(sim::SimTime{i * 1'000'000}, static_cast<double>(i));
  }
  const auto pts = ts.resampled(10);
  ASSERT_EQ(pts.size(), 10u);
  EXPECT_EQ(pts.front().time, sim::SimTime{0});
  EXPECT_EQ(pts.back().time, sim::SimTime{99'000'000});
  EXPECT_DOUBLE_EQ(pts.back().value, 99.0);
}

TEST(TimeSeries, ResampleShortSeriesReturnedWhole) {
  TimeSeries ts;
  ts.record(sim::SimTime{0}, 1.0);
  ts.record(sim::SimTime{10}, 2.0);
  EXPECT_EQ(ts.resampled(10).size(), 2u);
}

TEST(Cdf, FullCdfMonotone) {
  CdfBuilder cdf;
  for (const double v : {5.0, 1.0, 3.0, 3.0, 2.0}) {
    cdf.add(v);
  }
  const auto pts = cdf.build();
  ASSERT_EQ(pts.size(), 4u);  // 3.0 collapsed
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GT(pts[i].x, pts[i - 1].x);
    EXPECT_GT(pts[i].p, pts[i - 1].p);
  }
  EXPECT_DOUBLE_EQ(pts.back().p, 1.0);
  // P(X <= 3) = 4/5.
  EXPECT_DOUBLE_EQ(pts[2].x, 3.0);
  EXPECT_DOUBLE_EQ(pts[2].p, 0.8);
}

TEST(Cdf, UniformGridCoversRange) {
  CdfBuilder cdf;
  for (int i = 0; i <= 10; ++i) {
    cdf.add(i);
  }
  const auto pts = cdf.build_uniform(11);
  ASSERT_EQ(pts.size(), 11u);
  EXPECT_DOUBLE_EQ(pts.front().x, 0.0);
  EXPECT_DOUBLE_EQ(pts.back().x, 10.0);
  EXPECT_DOUBLE_EQ(pts.back().p, 1.0);
}

TEST(Cdf, EmptyBuilders) {
  CdfBuilder cdf;
  EXPECT_TRUE(cdf.build().empty());
  EXPECT_TRUE(cdf.build_uniform(5).empty());
}

}  // namespace
}  // namespace erms::metrics
