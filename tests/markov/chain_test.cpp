#include "oracle/chain.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace clrearly::markov {
namespace {

using util::Matrix;

// --- Construction validation -------------------------------------------

TEST(AbsorbingChainTest, RejectsNonSquareQ) {
  EXPECT_THROW(AbsorbingChain(Matrix(2, 3), Matrix(2, 1), {0.0, 0.0}),
               std::invalid_argument);
}

TEST(AbsorbingChainTest, RejectsEmptyChain) {
  EXPECT_THROW(AbsorbingChain(Matrix(0, 0), Matrix(0, 1), {}),
               std::invalid_argument);
}

TEST(AbsorbingChainTest, RejectsMissingAbsorbingStates) {
  EXPECT_THROW(AbsorbingChain(Matrix{{0.5}}, Matrix(1, 0), {1.0}),
               std::invalid_argument);
}

TEST(AbsorbingChainTest, RejectsRowNotSummingToOne) {
  EXPECT_THROW(AbsorbingChain(Matrix{{0.5}}, Matrix{{0.4}}, {1.0}),
               std::invalid_argument);
}

TEST(AbsorbingChainTest, RejectsNegativeProbability) {
  EXPECT_THROW(AbsorbingChain(Matrix{{-0.1}}, Matrix{{1.1}}, {1.0}),
               std::invalid_argument);
}

TEST(AbsorbingChainTest, RejectsNegativeResidence) {
  EXPECT_THROW(AbsorbingChain(Matrix{{0.0}}, Matrix{{1.0}}, {-1.0}),
               std::invalid_argument);
}

TEST(AbsorbingChainTest, RejectsNonAbsorbingChain) {
  // Two transient states looping into each other with no exit.
  const Matrix q{{0.0, 1.0}, {1.0, 0.0}};
  const Matrix r(2, 1);
  EXPECT_THROW(AbsorbingChain(q, r, {1.0, 1.0}), std::domain_error);
}

// --- Hand-computed geometric chain --------------------------------------
// One transient state with self-loop p and absorption 1-p. The number of
// visits is geometric: E = 1/(1-p), E[time] = r/(1-p),
// Var[time] = r^2 p/(1-p)^2.

class GeometricChainTest : public ::testing::TestWithParam<double> {};

TEST_P(GeometricChainTest, MatchesClosedForm) {
  const double p = GetParam();
  const double residence = 2.5;
  const AbsorbingChain chain(Matrix{{p}}, Matrix{{1.0 - p}}, {residence});

  const double expected_visits = 1.0 / (1.0 - p);
  EXPECT_NEAR(chain.expected_visits(0)[0], expected_visits, 1e-12);
  EXPECT_NEAR(chain.expected_steps(0), expected_visits, 1e-12);
  EXPECT_NEAR(chain.expected_time(0), residence * expected_visits, 1e-12);
  EXPECT_NEAR(chain.time_variance(0),
              residence * residence * p / ((1.0 - p) * (1.0 - p)), 1e-9);
  EXPECT_NEAR(chain.absorption_probability(0, 0), 1.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(LoopProbabilities, GeometricChainTest,
                         ::testing::Values(0.0, 0.1, 0.5, 0.9, 0.99));

// --- Series chain --------------------------------------------------------

TEST(AbsorbingChainTest, SeriesChainAccumulatesResidence) {
  // s0 -> s1 -> absorbed, deterministic.
  const Matrix q{{0.0, 1.0}, {0.0, 0.0}};
  const Matrix r{{0.0}, {1.0}};
  const AbsorbingChain chain(q, r, {3.0, 4.0});
  EXPECT_NEAR(chain.expected_time(0), 7.0, 1e-12);
  EXPECT_NEAR(chain.expected_time(1), 4.0, 1e-12);
  EXPECT_NEAR(chain.expected_steps(0), 2.0, 1e-12);
  EXPECT_NEAR(chain.time_variance(0), 0.0, 1e-9);  // deterministic path
}

// --- Competing absorbing states ------------------------------------------

TEST(AbsorbingChainTest, AbsorptionProbabilitiesSplit) {
  // One transient state: 30% error, 60% success, 10% retry.
  const Matrix q{{0.1}};
  const Matrix r{{0.3, 0.6}};
  const AbsorbingChain chain(q, r, {1.0});
  // Conditional split after removing the self-loop: 1/3 vs 2/3.
  EXPECT_NEAR(chain.absorption_probability(0, 0), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(chain.absorption_probability(0, 1), 2.0 / 3.0, 1e-12);
  // Rows of B sum to 1.
  const auto& b = chain.absorption_probabilities();
  EXPECT_NEAR(b(0, 0) + b(0, 1), 1.0, 1e-12);
}

// --- The classic drunkard's-walk example (Kemeny & Snell) -----------------
// States 1,2,3 transient between absorbing walls 0 and 4; p=1/2 each way.

TEST(AbsorbingChainTest, DrunkardsWalk) {
  const Matrix q{{0.0, 0.5, 0.0}, {0.5, 0.0, 0.5}, {0.0, 0.5, 0.0}};
  const Matrix r{{0.5, 0.0}, {0.0, 0.0}, {0.0, 0.5}};
  const AbsorbingChain chain(q, r, {1.0, 1.0, 1.0});
  // Known results: expected steps from the middle = 4; absorption left = 1/2.
  EXPECT_NEAR(chain.expected_steps(1), 4.0, 1e-12);
  EXPECT_NEAR(chain.expected_steps(0), 3.0, 1e-12);
  EXPECT_NEAR(chain.absorption_probability(1, 0), 0.5, 1e-12);
  EXPECT_NEAR(chain.absorption_probability(0, 0), 0.75, 1e-12);
}

// --- Start distributions --------------------------------------------------

TEST(AbsorbingChainTest, ExpectedTimeUnderDistribution) {
  const Matrix q{{0.0, 1.0}, {0.0, 0.0}};
  const Matrix r{{0.0}, {1.0}};
  const AbsorbingChain chain(q, r, {3.0, 4.0});
  EXPECT_NEAR(chain.expected_time({0.5, 0.5}), 0.5 * 7.0 + 0.5 * 4.0, 1e-12);
  EXPECT_THROW(chain.expected_time(std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(AbsorbingChainTest, OutOfRangeAccessorsThrow) {
  const AbsorbingChain chain(Matrix{{0.0}}, Matrix{{1.0}}, {1.0});
  EXPECT_THROW(chain.expected_time(1), std::out_of_range);
  EXPECT_THROW(chain.expected_visits(1), std::out_of_range);
  EXPECT_THROW(chain.expected_steps(1), std::out_of_range);
  EXPECT_THROW(chain.absorption_probability(0, 1), std::out_of_range);
  EXPECT_THROW(chain.time_variance(1), std::out_of_range);
}

// --- Monte-Carlo cross-validation -----------------------------------------

TEST(SimulateTest, AgreesWithAnalyticalResults) {
  // Retry-style chain: work (t=5) fails 40% -> recover (t=2) succeeds 75%.
  const Matrix q{{0.0, 0.4}, {0.75, 0.0}};
  const Matrix r{{0.6, 0.0}, {0.0, 0.25}};
  const AbsorbingChain chain(q, r, {5.0, 2.0});
  const SimulationResult sim = simulate(chain, 0, 200000, /*seed=*/77);

  EXPECT_NEAR(sim.mean_time, chain.expected_time(0), 0.05);
  EXPECT_NEAR(sim.mean_steps, chain.expected_steps(0), 0.02);
  EXPECT_NEAR(sim.absorption_frequency[0], chain.absorption_probability(0, 0),
              0.005);
  EXPECT_NEAR(sim.absorption_frequency[1], chain.absorption_probability(0, 1),
              0.005);
}

TEST(SimulateTest, ValidatesArguments) {
  const AbsorbingChain chain(Matrix{{0.0}}, Matrix{{1.0}}, {1.0});
  EXPECT_THROW(simulate(chain, 1, 10, 1), std::out_of_range);
  EXPECT_THROW(simulate(chain, 0, 0, 1), std::invalid_argument);
}

TEST(SimulateTest, DeterministicForSeed) {
  const Matrix q{{0.3}};
  const Matrix r{{0.7}};
  const AbsorbingChain chain(q, r, {1.0});
  const SimulationResult a = simulate(chain, 0, 1000, 5);
  const SimulationResult b = simulate(chain, 0, 1000, 5);
  EXPECT_EQ(a.mean_time, b.mean_time);
  EXPECT_EQ(a.absorption_frequency, b.absorption_frequency);
}

}  // namespace
}  // namespace clrearly::markov
