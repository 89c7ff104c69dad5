#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace clrearly::util {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanIsHalf) {
  Rng rng(8);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(10);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all five values appear in 1000 draws
}

TEST(RngTest, IndexStaysBelowBound) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.index(7), 7u);
  }
  // n = 1 always yields 0.
  EXPECT_EQ(rng.index(1), 0u);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(12);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(14);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
}

TEST(RngTest, NormalWithParamsShiftsAndScales) {
  Rng rng(15);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(RngTest, LognormalIsPositive) {
  Rng rng(16);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(rng.lognormal(0.0, 1.0), 0.0);
  }
}

TEST(RngTest, LognormalMedian) {
  Rng rng(17);
  std::vector<double> xs;
  for (int i = 0; i < 50001; ++i) xs.push_back(rng.lognormal(std::log(500.0), 0.5));
  std::nth_element(xs.begin(), xs.begin() + 25000, xs.end());
  EXPECT_NEAR(xs[25000], 500.0, 25.0);
}

TEST(RngTest, ShuffleProducesPermutation) {
  Rng rng(18);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  auto copy = v;
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, sorted);
}

TEST(RngTest, ShuffleActuallyShuffles) {
  Rng rng(19);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[i] = i;
  const auto original = v;
  rng.shuffle(v);
  EXPECT_NE(v, original);  // astronomically unlikely to be identity
}

TEST(RngTest, SplitStreamsAreIndependentAndDeterministic) {
  Rng parent_a(99), parent_b(99);
  Rng child_a = parent_a.split();
  Rng child_b = parent_b.split();
  // Identical derivation -> identical child streams.
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(child_a.next_u64(), child_b.next_u64());
  }
  // Child stream differs from the parent's continued stream.
  Rng parent_c(99);
  Rng child_c = parent_c.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (child_c.next_u64() == parent_c.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, SplitChildIgnoresCachedNormalState) {
  // Regression: split() must hand out children with an empty Box-Muller
  // cache. A parent holding a cached second normal has the same raw xoshiro
  // state as one that has already consumed it (returning the cached value
  // costs no raw draws), so both must derive the *identical* child stream.
  Rng cached(123);
  (void)cached.normal();  // draws a Box-Muller pair, caches the second value
  Rng drained = cached;
  (void)drained.normal();  // consumes only the cache; raw state unchanged

  Rng child_of_cached = cached.split();
  Rng child_of_drained = drained.split();
  EXPECT_EQ(child_of_cached, child_of_drained);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(child_of_cached.next_u64(), child_of_drained.next_u64());
    EXPECT_DOUBLE_EQ(child_of_cached.normal(), child_of_drained.normal());
  }

  // And the child's first normal must not be the parent's pending cached
  // value — interleaved normal() + split() produce independent draws.
  Rng parent(7);
  const double parent_first = parent.normal();  // caches the pair's second
  Rng child = parent.split();
  const double child_first = child.normal();
  const double parent_second = parent.normal();  // the cached value
  EXPECT_NE(child_first, parent_second);
  EXPECT_NE(child_first, parent_first);
}

}  // namespace
}  // namespace clrearly::util
