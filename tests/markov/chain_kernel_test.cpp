// Tests for the single-solve chain-analysis kernel: the width-1 batched
// row-0 solve and the AbsorbingChain reference against an independent
// full-inverse computation, the batched CLR assembler against the
// named-state ChainBuilder path, thread-local batch workspaces under
// concurrency (TSan coverage), input validation, and simulate()'s
// truncation accounting.
#include "oracle/chain.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "markov/chain_batch.hpp"
#include "oracle/clr_chain_reference.hpp"
#include "oracle/linsolve.hpp"
#include "reliability/clr_chain_builder.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace clrearly::markov {
namespace {

double rel_err(double a, double b) {
  const double scale = std::max({std::abs(a), std::abs(b), 1e-300});
  return std::abs(a - b) / scale;
}

/// Random absorbing chain: every row keeps strictly positive mass toward
/// every target (transient and absorbing), so absorption is guaranteed and
/// I - Q is comfortably nonsingular.
void fill_random_chain(std::size_t t, std::size_t a, util::Rng& rng,
                       util::Matrix& q, util::Matrix& r,
                       std::vector<double>& residence) {
  q = util::Matrix(t, t);
  r = util::Matrix(t, a);
  residence.assign(t, 0.0);
  std::vector<double> w(t + a);
  for (std::size_t i = 0; i < t; ++i) {
    double sum = 0.0;
    for (double& x : w) {
      x = rng.uniform(0.01, 1.0);
      sum += x;
    }
    for (std::size_t j = 0; j < t; ++j) q(i, j) = w[j] / sum;
    for (std::size_t k = 0; k < a; ++k) r(i, k) = w[t + k] / sum;
    residence[i] = rng.uniform(0.0, 10.0);
  }
}

/// Copy a dense chain into a width-1 batch and solve it with the kernel.
void solve_width1(const util::Matrix& q, const util::Matrix& r,
                  const std::vector<double>& residence, ChainBatch& batch) {
  const std::size_t t = q.rows();
  const std::size_t a = r.cols();
  batch.configure(t, a, 1);
  for (std::size_t i = 0; i < t; ++i) {
    for (std::size_t j = 0; j < t; ++j) batch.q[i * t + j] = q(i, j);
    for (std::size_t k = 0; k < a; ++k) batch.r[i * a + k] = r(i, k);
  }
  batch.residence = residence;
  solve_row0_batch(batch, /*with_second_moment=*/true);
}

/// Reference row-0 metrics through the full inverse N = (I - Q)^{-1} — the
/// pre-kernel computation, reproduced independently of AbsorbingChain.
struct Reference {
  std::vector<double> row0;
  std::vector<double> times;
  util::Matrix n, b;
  double t0 = 0.0, steps0 = 0.0, m0 = 0.0;
};

Reference full_inverse_reference(const util::Matrix& q, const util::Matrix& r,
                                 const std::vector<double>& residence) {
  const std::size_t t = q.rows();
  util::Matrix i_minus_q = util::Matrix::identity(t);
  i_minus_q -= q;
  Reference ref;
  ref.n = util::invert(i_minus_q);
  ref.b = ref.n * r;
  ref.times = ref.n.apply(residence);
  ref.t0 = ref.times[0];
  ref.row0.resize(t);
  for (std::size_t j = 0; j < t; ++j) {
    ref.row0[j] = ref.n(0, j);
    ref.steps0 += ref.n(0, j);
  }
  const std::vector<double> qt = q.apply(ref.times);
  std::vector<double> rhs(t);
  for (std::size_t i = 0; i < t; ++i) {
    rhs[i] = residence[i] * residence[i] + 2.0 * residence[i] * qt[i];
  }
  ref.m0 = ref.n.apply(rhs)[0];
  return ref;
}

reliability::ClrChainParams sample_params(std::size_t intervals,
                                          std::size_t salt) {
  reliability::ClrChainParams p;
  p.exec_time_us = 80.0 + static_cast<double>(salt % 13);
  p.lambda_per_us = 2e-4;
  p.hw_masking = 0.35;
  p.implicit_ssw_masking = 0.25;
  p.detection_coverage = 0.9;
  p.tolerance_success = 0.92;
  p.asw_masking = 0.45;
  p.intervals = intervals;
  p.detection_time_us = 0.4;
  p.tolerance_time_us = 1.5;
  p.checkpoint_time_us = 0.8;
  p.checkpoint_error_prob = 2e-5;
  return p;
}

class ChainKernelRandomTest : public ::testing::TestWithParam<std::size_t> {};

// The width-1 kernel's single adjoint solve must reproduce the full-inverse
// reference for every row-0 metric, to 1e-12 relative.
TEST_P(ChainKernelRandomTest, MatchesFullInverseReference) {
  const std::size_t t = GetParam();
  util::Rng rng(4000 + t);
  for (std::size_t a : {std::size_t{1}, std::size_t{2}}) {
    util::Matrix q, r;
    std::vector<double> residence;
    fill_random_chain(t, a, rng, q, r, residence);
    const Reference ref = full_inverse_reference(q, r, residence);

    ChainBatch batch;
    solve_width1(q, r, residence, batch);
    ASSERT_EQ(batch.singular[0], 0);
    EXPECT_LE(rel_err(batch.expected_time[0], ref.t0), 1e-12);
    EXPECT_LE(rel_err(batch.expected_steps[0], ref.steps0), 1e-12);
    EXPECT_LE(rel_err(batch.second_moment[0], ref.m0), 1e-12);
    ASSERT_EQ(batch.b0.size(), a);
    for (std::size_t k = 0; k < a; ++k) {
      EXPECT_LE(rel_err(batch.b0[k], ref.b(0, k)), 1e-12);
    }
    for (std::size_t j = 0; j < t; ++j) {
      EXPECT_LE(rel_err(batch.row0[j], ref.row0[j]), 1e-12);
    }

    // The AbsorbingChain reference (eager row-0 + lazy full state) must
    // agree with the same full inverse.
    const AbsorbingChain chain(q, r, residence);
    EXPECT_LE(rel_err(chain.expected_time(0), ref.t0), 1e-12);
    EXPECT_LE(rel_err(chain.expected_steps(0), ref.steps0), 1e-12);
    for (std::size_t k = 0; k < a; ++k) {
      EXPECT_LE(rel_err(chain.absorption_probability(0, k), ref.b(0, k)),
                1e-12);
    }
    const double var_ref = ref.m0 - ref.t0 * ref.t0;
    EXPECT_LE(rel_err(chain.time_variance(0), var_ref),
              1e-9);  // subtractive cancellation: looser
    // Lazy full matrices against the reference inverse.
    for (std::size_t i = 0; i < t; ++i) {
      EXPECT_LE(rel_err(chain.expected_time(i), ref.times[i]), 1e-12);
      for (std::size_t j = 0; j < t; ++j) {
        EXPECT_LE(rel_err(chain.fundamental()(i, j), ref.n(i, j)), 1e-12);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ChainKernelRandomTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 40));

// The batched assembler's lanes must reproduce the ChainBuilder reference
// matrices bit for bit — same state order, same edge arithmetic.
TEST(ChainKernelTest, DenseAssemblerMatchesReferenceBitExactly) {
  constexpr std::size_t kWidth = 3;
  for (std::size_t intervals : {1u, 2u, 3u, 5u}) {
    for (bool functional : {false, true}) {
      std::vector<reliability::ClrChainParams> params;
      for (std::size_t l = 0; l < kWidth; ++l) {
        params.push_back(sample_params(intervals, 7 + l));
      }
      const std::vector<const reliability::ClrChainParams*> lanes{
          &params[0], &params[1], &params[2]};
      ChainBatch batch;
      reliability::assemble_clr_chain_batch(lanes, functional, batch);
      for (std::size_t l = 0; l < kWidth; ++l) {
        const AbsorbingChain ref =
            reliability::build_chain_reference(params[l], functional);
        const std::size_t t = ref.num_transient();
        const std::size_t a = ref.num_absorbing();
        ASSERT_EQ(batch.t, t);
        ASSERT_EQ(batch.a, a);
        for (std::size_t i = 0; i < t; ++i) {
          for (std::size_t j = 0; j < t; ++j) {
            EXPECT_EQ(batch.q[(i * t + j) * kWidth + l], ref.q()(i, j));
          }
          for (std::size_t k = 0; k < a; ++k) {
            EXPECT_EQ(batch.r[(i * a + k) * kWidth + l], ref.r()(i, k));
          }
          EXPECT_EQ(batch.residence[i * kWidth + l],
                    ref.residence_times()[i]);
        }
      }
    }
  }
}

reliability::ClrChainAnalysis analyze_uncached(
    const reliability::ClrChainParams& p) {
  return reliability::analyze_clr_chain_batch(
      {&p, 1}, {.group_width = 1, .use_cache = false})[0];
}

/// Both Fig. 3 chains of `p` through the width-1 kernel on `batch`:
/// {E[time], E[T^2], P[Error]}.
std::vector<double> solve_pair(const reliability::ClrChainParams& p,
                               ChainBatch& batch) {
  const reliability::ClrChainParams* const lane = &p;
  reliability::assemble_clr_chain_batch({&lane, 1}, false, batch);
  solve_row0_batch(batch, /*with_second_moment=*/true);
  std::vector<double> out{batch.expected_time[0], batch.second_moment[0]};
  reliability::assemble_clr_chain_batch({&lane, 1}, true, batch);
  solve_row0_batch(batch, /*with_second_moment=*/false);
  out.push_back(batch.b0[reliability::kAbsorbError]);
  return out;
}

// Workspace reuse across sizes and kinds: a smaller chain after a larger one
// must not read stale buffer contents (the sparse q re-zeroing included).
TEST(ChainKernelTest, WorkspaceReuseAcrossSizesIsClean) {
  ChainBatch warm;
  for (std::size_t intervals : {5u, 1u, 3u, 2u, 4u, 1u}) {
    const reliability::ClrChainParams p = sample_params(intervals, intervals);
    ChainBatch fresh;
    EXPECT_EQ(solve_pair(p, warm), solve_pair(p, fresh));
  }
}

// Concurrent cache-miss analyses: each worker must land on its own
// thread_local batch workspace and produce results identical to the serial
// path. Run under TSan in CI.
TEST(ChainKernelTest, ConcurrentWorkspacesMatchSerial) {
  const std::size_t jobs = 64;
  std::vector<reliability::ClrChainAnalysis> serial(jobs), parallel(jobs);
  for (std::size_t i = 0; i < jobs; ++i) {
    serial[i] = analyze_uncached(sample_params(1 + i % 5, i));
  }
  util::set_thread_count(4);
  util::parallel_for(jobs, [&](std::size_t i) {
    parallel[i] = analyze_uncached(sample_params(1 + i % 5, i));
  });
  util::set_thread_count(0);
  for (std::size_t i = 0; i < jobs; ++i) {
    EXPECT_EQ(serial[i].avg_exec_time_us, parallel[i].avg_exec_time_us);
    EXPECT_EQ(serial[i].exec_time_stddev_us, parallel[i].exec_time_stddev_us);
    EXPECT_EQ(serial[i].error_prob, parallel[i].error_prob);
    EXPECT_EQ(serial[i].min_exec_time_us, parallel[i].min_exec_time_us);
  }
}

TEST(ChainKernelTest, FullValidationRejectsBadRows) {
  util::Matrix q{{0.5}};
  util::Matrix r{{0.4}};  // row sums to 0.9
  EXPECT_THROW(AbsorbingChain(q, r, {1.0}), std::invalid_argument);
  // Structural errors and non-absorbing chains are rejected too.
  EXPECT_THROW(AbsorbingChain(util::Matrix(2, 3), util::Matrix(2, 1),
                              {1.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(AbsorbingChain(util::Matrix{{1.0}}, util::Matrix{{0.0}}, {1.0}),
               std::domain_error);
}

// Copies restart lazily but serve identical eager metrics; moves carry
// everything over.
TEST(ChainKernelTest, CopyAndMovePreserveMetrics) {
  util::Matrix q, r;
  std::vector<double> residence;
  util::Rng rng(99);
  fill_random_chain(6, 2, rng, q, r, residence);
  const AbsorbingChain original(q, r, residence);
  const double t0 = original.expected_time(0);
  original.fundamental();  // materialize lazy state in the source

  AbsorbingChain copy = original;
  EXPECT_EQ(copy.expected_time(0), t0);
  EXPECT_LE(rel_err(copy.fundamental()(2, 3), original.fundamental()(2, 3)),
            1e-15);

  AbsorbingChain moved = std::move(copy);
  EXPECT_EQ(moved.expected_time(0), t0);

  AbsorbingChain assigned(util::Matrix{{0.0}}, util::Matrix{{1.0}}, {1.0});
  assigned = original;
  EXPECT_EQ(assigned.expected_time(0), t0);
}

// ---- simulate() truncation accounting --------------------------------------

TEST(SimulateTruncationTest, DeterministicTruncationAllTrialsThrows) {
  // 0 -> 1 (always), 1 -> absorb (always): absorption needs exactly 2 steps,
  // so max_steps = 1 truncates every trial deterministically.
  util::Matrix q{{0.0, 1.0}, {0.0, 0.0}};
  util::Matrix r{{0.0}, {1.0}};
  const AbsorbingChain chain(q, r, {1.0, 1.0});
  EXPECT_THROW(simulate(chain, 0, 100, 42, /*max_steps=*/1),
               std::runtime_error);
  // With max_steps = 2 every trial absorbs.
  const SimulationResult ok = simulate(chain, 0, 100, 42, /*max_steps=*/2);
  EXPECT_EQ(ok.truncated_trials, 0u);
  EXPECT_DOUBLE_EQ(ok.mean_steps, 2.0);
  EXPECT_DOUBLE_EQ(ok.mean_time, 2.0);
  EXPECT_DOUBLE_EQ(ok.absorption_frequency[0], 1.0);
}

TEST(SimulateTruncationTest, TruncatedTrialsExcludedFromAggregates) {
  // Self-loop with 50% absorption per step; max_steps = 1 truncates roughly
  // half the trials. Completed trials all absorbed after exactly one step.
  util::Matrix q{{0.5}};
  util::Matrix r{{0.5}};
  const AbsorbingChain chain(q, r, {3.0});
  const SimulationResult res = simulate(chain, 0, 2000, 7, /*max_steps=*/1);
  EXPECT_GT(res.truncated_trials, 0u);
  EXPECT_LT(res.truncated_trials, 2000u);
  // Aggregates are over completed trials only: every completed trial took
  // exactly one step of residence 3, and absorbed.
  EXPECT_DOUBLE_EQ(res.mean_steps, 1.0);
  EXPECT_DOUBLE_EQ(res.mean_time, 3.0);
  EXPECT_DOUBLE_EQ(res.absorption_frequency[0], 1.0);
}

TEST(SimulateTruncationTest, DefaultCapLeavesHealthyChainsUntouched) {
  util::Matrix q{{0.3}};
  util::Matrix r{{0.7}};
  const AbsorbingChain chain(q, r, {2.0});
  const SimulationResult res = simulate(chain, 0, 5000, 11);
  EXPECT_EQ(res.truncated_trials, 0u);
  // Frequencies over completed trials must sum to 1 exactly.
  double total = 0.0;
  for (double f : res.absorption_frequency) total += f;
  EXPECT_DOUBLE_EQ(total, 1.0);
  EXPECT_NEAR(res.mean_time, chain.expected_time(0), 0.1);
}

}  // namespace
}  // namespace clrearly::markov
