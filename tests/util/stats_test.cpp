#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/rng.hpp"

namespace clrearly::util {
namespace {

TEST(RunningStatsTest, EmptyAccumulator) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, SingleSample) {
  RunningStats s;
  s.add(4.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 4.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 4.0);
  EXPECT_EQ(s.max(), 4.0);
}

TEST(RunningStatsTest, HandComputedMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 = 7: sum sq dev = 32 -> 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  Rng rng(5);
  RunningStats all, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    all.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-8);
  EXPECT_EQ(left.min(), all.min());
  EXPECT_EQ(left.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmptyIsNoop) {
  RunningStats a;
  a.add(1.0);
  a.add(2.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.5);
}

TEST(StatsTest, MeanOfVector) {
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_EQ(mean({}), 0.0);
}

TEST(StatsTest, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(StatsTest, QuantileInterpolates) {
  const std::vector<double> xs{10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 30.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 20.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.125), 15.0);
}

TEST(StatsTest, QuantileRejectsBadQ) {
  EXPECT_THROW(quantile({1.0}, -0.1), std::invalid_argument);
  EXPECT_THROW(quantile({1.0}, 1.1), std::invalid_argument);
}

TEST(StatsTest, PercentChange) {
  EXPECT_DOUBLE_EQ(percent_change(100.0, 150.0), 50.0);
  EXPECT_DOUBLE_EQ(percent_change(100.0, 50.0), -50.0);
  EXPECT_DOUBLE_EQ(percent_change(0.0, 0.0), 0.0);
  EXPECT_TRUE(std::isinf(percent_change(0.0, 1.0)));
}

TEST(IntervalTest, HalfWidthAndContainment) {
  const Interval iv{2.0, 6.0};
  EXPECT_DOUBLE_EQ(iv.half_width(), 2.0);
  EXPECT_TRUE(iv.contains(2.0));   // closed on both ends
  EXPECT_TRUE(iv.contains(6.0));
  EXPECT_TRUE(iv.contains(4.0));
  EXPECT_FALSE(iv.contains(1.999));
  EXPECT_FALSE(iv.contains(6.001));
  EXPECT_EQ(iv, (Interval{2.0, 6.0}));
}

TEST(ConfidenceIntervalTest, HandComputedValue) {
  // mean 10, stddev 2, n 100: half-width = 1.96 * 2 / 10 = 0.3919927969...
  const Interval iv = confidence_interval_95(10.0, 2.0, 100);
  const double half = 1.959963984540054 * 2.0 / 10.0;
  EXPECT_NEAR(iv.lo, 10.0 - half, 1e-12);
  EXPECT_NEAR(iv.hi, 10.0 + half, 1e-12);
  EXPECT_TRUE(iv.contains(10.0));
}

TEST(ConfidenceIntervalTest, ShrinksWithSampleSize) {
  const Interval small = confidence_interval_95(5.0, 1.0, 100);
  const Interval large = confidence_interval_95(5.0, 1.0, 10000);
  EXPECT_LT(large.half_width(), small.half_width());
  EXPECT_NEAR(small.half_width() / large.half_width(), 10.0, 1e-9);
}

TEST(ConfidenceIntervalTest, DegeneratesWithoutSpreadInformation) {
  // Fewer than two samples or no spread: [mean, mean].
  EXPECT_EQ(confidence_interval_95(3.0, 2.0, 0), (Interval{3.0, 3.0}));
  EXPECT_EQ(confidence_interval_95(3.0, 2.0, 1), (Interval{3.0, 3.0}));
  EXPECT_EQ(confidence_interval_95(3.0, 0.0, 50), (Interval{3.0, 3.0}));
  EXPECT_EQ(confidence_interval_95(3.0, -1.0, 50), (Interval{3.0, 3.0}));
}

TEST(WilsonIntervalTest, HandComputedHalfSplit) {
  // 50 / 100 with z = 1.96: the classic textbook value [0.4038, 0.5962].
  const Interval iv = wilson_interval_95(50.0, 100);
  EXPECT_NEAR(iv.lo, 0.4038, 5e-4);
  EXPECT_NEAR(iv.hi, 0.5962, 5e-4);
  EXPECT_TRUE(iv.contains(0.5));
}

TEST(WilsonIntervalTest, NeverCollapsesAtTheBoundaries) {
  // Unlike Wald, p = 0 and p = 1 still give informative intervals in [0,1].
  const Interval none = wilson_interval_95(0.0, 1000);
  EXPECT_NEAR(none.lo, 0.0, 1e-12);
  EXPECT_GT(none.hi, 1e-4);
  EXPECT_LT(none.hi, 0.01);
  const Interval all = wilson_interval_95(1000.0, 1000);
  EXPECT_LT(all.lo, 1.0 - 1e-4);
  EXPECT_GT(all.lo, 0.99);
  EXPECT_NEAR(all.hi, 1.0, 1e-12);
}

TEST(WilsonIntervalTest, FractionalSuccessesAndExcessRejection) {
  // Criticality-weighted outcomes are fractional; successes above n used to
  // clamp silently, hiding an upstream accounting bug — now they throw.
  const Interval iv = wilson_interval_95(2.5, 100);
  EXPECT_GT(iv.lo, 0.0);
  EXPECT_LT(iv.hi, 0.1);
  EXPECT_TRUE(iv.contains(0.025));
  EXPECT_THROW(wilson_interval_95(150.0, 100), std::invalid_argument);
  // Exactly n is the legitimate boundary, not an excess.
  EXPECT_NO_THROW(wilson_interval_95(100.0, 100));
}

TEST(WilsonIntervalTest, EdgeCases) {
  EXPECT_EQ(wilson_interval_95(0.0, 0), (Interval{0.0, 1.0}));
  EXPECT_THROW(wilson_interval_95(-1.0, 100), std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(wilson_interval_95(nan, 100), std::invalid_argument);
}

TEST(RunningStatsTest, RejectsNaN) {
  RunningStats s;
  s.add(1.0);
  EXPECT_THROW(s.add(std::numeric_limits<double>::quiet_NaN()),
               std::domain_error);
  // The accumulator is unchanged by the rejected sample.
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 1.0);
}

TEST(StatsTest, QuantileRejectsNaNSamples) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(quantile({1.0, nan, 3.0}, 0.5), std::domain_error);
  // Without the check NaN silently poisons the sort order; the valid call
  // still works.
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0}, 0.5), 2.0);
}

TEST(WilsonIntervalTest, CoversTrueProportionEmpirically) {
  // ~95% of simulated binomial experiments must contain the true p.
  Rng rng(23);
  const double p = 0.07;
  const std::size_t n = 400;
  int covered = 0;
  const int experiments = 500;
  for (int e = 0; e < experiments; ++e) {
    double successes = 0.0;
    for (std::size_t i = 0; i < n; ++i) successes += rng.bernoulli(p) ? 1 : 0;
    if (wilson_interval_95(successes, n).contains(p)) ++covered;
  }
  EXPECT_GT(static_cast<double>(covered) / experiments, 0.90);
}

}  // namespace
}  // namespace clrearly::util
