#include "moea/indicators.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace clrearly::moea {
namespace {

const std::vector<Objectives> kStaircase{
    {1.0, 4.0}, {2.0, 3.0}, {3.0, 2.0}, {4.0, 1.0}};

TEST(EpsilonIndicatorTest, ZeroOrNegativeWhenCovering) {
  EXPECT_LE(epsilon_indicator(kStaircase, kStaircase), 0.0);
  const std::vector<Objectives> better{
      {0.5, 3.5}, {1.5, 2.5}, {2.5, 1.5}, {3.5, 0.5}};
  EXPECT_DOUBLE_EQ(epsilon_indicator(better, kStaircase), -0.5);
}

TEST(EpsilonIndicatorTest, MeasuresWorstShift) {
  const std::vector<Objectives> shifted{
      {1.5, 4.5}, {2.5, 3.5}, {3.5, 2.5}, {4.5, 1.5}};
  EXPECT_DOUBLE_EQ(epsilon_indicator(shifted, kStaircase), 0.5);
}

TEST(CoverageTest, FullAndPartialCoverage) {
  const std::vector<Objectives> dominating{{0.5, 0.5}};
  EXPECT_DOUBLE_EQ(coverage(dominating, kStaircase), 1.0);
  EXPECT_DOUBLE_EQ(coverage(kStaircase, dominating), 0.0);

  const std::vector<Objectives> half{{1.0, 4.0}, {2.0, 3.0}};
  EXPECT_DOUBLE_EQ(coverage(half, kStaircase), 0.5);  // covers its two twins
}

TEST(CoverageTest, SelfCoverageIsOne) {
  // Weak domination: every point covers itself.
  EXPECT_DOUBLE_EQ(coverage(kStaircase, kStaircase), 1.0);
}

TEST(CoverageTest, EmptySecondSetRejected) {
  EXPECT_THROW(coverage(kStaircase, {}), std::invalid_argument);
  EXPECT_DOUBLE_EQ(coverage({}, kStaircase), 0.0);
}

}  // namespace
}  // namespace clrearly::moea
