// Property tests on randomly generated absorbing chains: structural
// invariants that must hold for *any* valid chain, cross-checked against
// Monte-Carlo simulation.
#include <gtest/gtest.h>

#include <cmath>

#include "oracle/chain.hpp"
#include "util/rng.hpp"

namespace clrearly::markov {
namespace {

/// Random absorbing chain with `t` transient and `a` absorbing states.
/// Every transient row gets at least `min_absorb_mass` probability routed
/// (directly or not) toward absorption by construction: the last column
/// block receives a guaranteed share.
AbsorbingChain random_chain(std::size_t t, std::size_t a, util::Rng& rng,
                            double min_absorb_mass = 0.05) {
  util::Matrix q(t, t);
  util::Matrix r(t, a);
  for (std::size_t i = 0; i < t; ++i) {
    std::vector<double> raw(t + a);
    double total = 0.0;
    for (double& x : raw) {
      x = rng.uniform();
      total += x;
    }
    // Normalize, then guarantee direct absorbing mass on every row so the
    // chain is absorbing regardless of the transient topology.
    for (double& x : raw) x = x / total * (1.0 - min_absorb_mass);
    raw[t + rng.index(a)] += min_absorb_mass;
    for (std::size_t j = 0; j < t; ++j) q(i, j) = raw[j];
    for (std::size_t k = 0; k < a; ++k) r(i, k) = raw[t + k];
  }
  std::vector<double> residence(t);
  for (double& x : residence) x = rng.uniform(0.1, 10.0);
  return AbsorbingChain(std::move(q), std::move(r), std::move(residence));
}

struct ChainShape {
  std::size_t transient;
  std::size_t absorbing;
  std::uint64_t seed;
};

class RandomChainProperty : public ::testing::TestWithParam<ChainShape> {};

TEST_P(RandomChainProperty, AbsorptionRowsSumToOne) {
  util::Rng rng(GetParam().seed);
  const AbsorbingChain chain =
      random_chain(GetParam().transient, GetParam().absorbing, rng);
  const util::Matrix& b = chain.absorption_probabilities();
  for (std::size_t i = 0; i < chain.num_transient(); ++i) {
    double row = 0.0;
    for (std::size_t k = 0; k < chain.num_absorbing(); ++k) {
      const double p = b(i, k);
      EXPECT_GE(p, -1e-12);
      EXPECT_LE(p, 1.0 + 1e-12);
      row += p;
    }
    EXPECT_NEAR(row, 1.0, 1e-9);
  }
}

TEST_P(RandomChainProperty, FundamentalMatrixIsNonNegative) {
  util::Rng rng(GetParam().seed + 1);
  const AbsorbingChain chain =
      random_chain(GetParam().transient, GetParam().absorbing, rng);
  const util::Matrix& fundamental = chain.fundamental();
  for (std::size_t i = 0; i < chain.num_transient(); ++i) {
    for (std::size_t j = 0; j < chain.num_transient(); ++j) {
      EXPECT_GE(fundamental(i, j), -1e-12);
    }
    // A state is visited at least once when started from.
    EXPECT_GE(fundamental(i, i), 1.0 - 1e-12);
  }
}

TEST_P(RandomChainProperty, TimeAndStepsArePositiveAndFinite) {
  util::Rng rng(GetParam().seed + 2);
  const AbsorbingChain chain =
      random_chain(GetParam().transient, GetParam().absorbing, rng);
  for (std::size_t i = 0; i < chain.num_transient(); ++i) {
    EXPECT_GT(chain.expected_time(i), 0.0);
    EXPECT_TRUE(std::isfinite(chain.expected_time(i)));
    EXPECT_GE(chain.expected_steps(i), 1.0 - 1e-12);
    EXPECT_GE(chain.time_variance(i), -1e-6);
  }
}

TEST_P(RandomChainProperty, ExpectedTimeBoundedByResidenceExtremes) {
  util::Rng rng(GetParam().seed + 3);
  const AbsorbingChain chain =
      random_chain(GetParam().transient, GetParam().absorbing, rng);
  double min_res = chain.residence_times()[0];
  double max_res = min_res;
  for (double r : chain.residence_times()) {
    min_res = std::min(min_res, r);
    max_res = std::max(max_res, r);
  }
  for (std::size_t i = 0; i < chain.num_transient(); ++i) {
    const double steps = chain.expected_steps(i);
    const double time = chain.expected_time(i);
    EXPECT_GE(time, steps * min_res - 1e-9);
    EXPECT_LE(time, steps * max_res + 1e-9);
  }
}

TEST_P(RandomChainProperty, SimulationAgrees) {
  util::Rng rng(GetParam().seed + 4);
  const AbsorbingChain chain =
      random_chain(GetParam().transient, GetParam().absorbing, rng);
  const SimulationResult sim = simulate(chain, 0, 40000, GetParam().seed);
  EXPECT_NEAR(sim.mean_time / chain.expected_time(0), 1.0, 0.05);
  for (std::size_t k = 0; k < chain.num_absorbing(); ++k) {
    EXPECT_NEAR(sim.absorption_frequency[k],
                chain.absorption_probability(0, k), 0.02);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RandomChainProperty,
    ::testing::Values(ChainShape{1, 1, 1}, ChainShape{2, 2, 2},
                      ChainShape{4, 1, 3}, ChainShape{6, 3, 4},
                      ChainShape{10, 2, 5}, ChainShape{16, 4, 6},
                      ChainShape{25, 2, 7}));

}  // namespace
}  // namespace clrearly::markov
