// Absorbing discrete-time Markov chains.
//
// This is the analytical engine behind the paper's task-level reliability
// models (Section IV, Fig. 3): a task's execution under a cross-layer
// reliability configuration is a chain whose transient states carry residence
// times (useful execution, detection, tolerance, checkpointing) and whose
// absorbing states encode the outcome (End for the timing chain; Error /
// noError for the functional chain).
//
// With Q the transient-to-transient block and R the transient-to-absorbing
// block of the transition matrix, the fundamental matrix N = (I - Q)^{-1}
// gives (Kemeny & Snell):
//   * expected visits to each transient state:      N(start, j)
//   * expected time to absorption:                  (N r)(start), r = residence
//   * absorption probabilities per absorbing state: B = N R
//
// The DSE flows only ever read *row 0* of those quantities (every chain
// starts in its first Exec state), so the constructor factors I - Q once and
// performs a single adjoint solve (I - Q)^T x = e_0 — x is row 0 of N, and
// every row-0 metric is a dot product against it. The full N, B and
// second-moment vectors are computed lazily, on first access.
//
// Production chain solves run on the batched kernel
// (src/markov/chain_batch.hpp); AbsorbingChain is the tests-only reference
// it is checked against: its row-0 accessors and the kernel's lanes are
// bit-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "oracle/linsolve.hpp"
#include "oracle/matrix.hpp"

namespace clrearly::markov {

class AbsorbingChain {
 public:
  /// Construct from the transient block Q (t x t), the absorbing block R
  /// (t x a, a >= 1) and per-transient-state residence times (length t,
  /// all >= 0). Validates that all probabilities lie in [0, 1] and that
  /// each row of [Q | R] sums to 1 within `row_sum_tol`; throws
  /// std::invalid_argument otherwise. I - Q is LU-factored eagerly (throws
  /// std::domain_error if it is singular, i.e. the chain has a transient
  /// subset that can never reach absorption) and row-0 metrics are
  /// extracted with one adjoint solve; everything else is computed lazily.
  AbsorbingChain(util::Matrix q, util::Matrix r,
                 std::vector<double> residence_times,
                 double row_sum_tol = 1e-9);

  // Copies restart with a fresh (empty) lazy state; moves transfer it.
  // All special members are out of line — Lazy is incomplete here.
  AbsorbingChain(const AbsorbingChain& other);
  AbsorbingChain& operator=(const AbsorbingChain& other);
  AbsorbingChain(AbsorbingChain&&) noexcept;
  AbsorbingChain& operator=(AbsorbingChain&&) noexcept;
  ~AbsorbingChain();

  std::size_t num_transient() const noexcept { return q_.rows(); }
  std::size_t num_absorbing() const noexcept { return r_.cols(); }

  const util::Matrix& q() const noexcept { return q_; }
  const util::Matrix& r() const noexcept { return r_; }
  const std::vector<double>& residence_times() const noexcept {
    return residence_;
  }

  /// Fundamental matrix N = (I - Q)^{-1}. Computed lazily on first call
  /// (t column solves against the stored LU factors); thread-safe.
  const util::Matrix& fundamental() const;

  /// Expected number of visits to each transient state, starting from
  /// transient state `start` (a row of N). Row 0 comes from the eager
  /// adjoint solve; other rows materialize the fundamental matrix.
  std::vector<double> expected_visits(std::size_t start) const;

  /// Expected accumulated residence time until absorption from `start`.
  double expected_time(std::size_t start) const;

  /// Expected time to absorption under an initial distribution over the
  /// transient states (must have length num_transient(); weights may sum to
  /// anything — they are applied as given, matching a sub-stochastic start).
  double expected_time(const std::vector<double>& start_distribution) const;

  /// Expected number of steps (state transitions) until absorption.
  double expected_steps(std::size_t start) const;

  /// B = N R: B(i, k) = probability of ending in absorbing state k when
  /// starting from transient state i. Lazy (a column solves); thread-safe.
  const util::Matrix& absorption_probabilities() const;

  /// Probability of ending in absorbing state `absorbing` from `start`.
  /// Row 0 is served from the eager adjoint solve; other rows materialize
  /// absorption_probabilities().
  double absorption_probability(std::size_t start,
                                std::size_t absorbing) const;

  /// Variance of the number of visits is not needed by the paper's models,
  /// but the variance of time-to-absorption is useful for validating against
  /// Monte-Carlo simulation in tests. We expose the exact second-moment
  /// recursion evaluated from the chain (see chain.cpp for the derivation);
  /// the moment vectors are computed lazily on first call.
  double time_variance(std::size_t start) const;

 private:
  struct Lazy;  // deferred full-matrix/moment state, see chain.cpp

  const std::vector<double>& full_times() const;
  const std::vector<double>& second_moments() const;

  util::Matrix q_;
  util::Matrix r_;
  std::vector<double> residence_;
  util::LuDecomposition lu_;       // factors of I - Q, solve-on-demand
  std::vector<double> row0_;       // row 0 of N, from one adjoint solve
  std::vector<double> b0_;         // row 0 of B = N R
  double t0_ = 0.0;                // expected time to absorption from 0
  double steps0_ = 0.0;            // expected steps to absorption from 0
  std::unique_ptr<Lazy> lazy_;     // never null after construction
};

/// Monte-Carlo roll of an absorbing chain: simulate `trials` walks from
/// transient state `start`, returning (mean time to absorption, per-absorbing
/// state hit frequencies). Used by tests to cross-validate the analytical
/// results; deterministic given the seed.
///
/// A walk that has not absorbed after `max_steps` transitions is *truncated*:
/// it is excluded from every aggregate (mean_time, mean_steps,
/// absorption_frequency) and counted in truncated_trials instead, so a
/// pathological chain skews the report visibly rather than silently. Throws
/// std::runtime_error if every trial truncates.
struct SimulationResult {
  double mean_time = 0.0;
  double mean_steps = 0.0;
  std::vector<double> absorption_frequency;
  std::size_t truncated_trials = 0;  ///< walks that hit max_steps unabsorbed
};
SimulationResult simulate(const AbsorbingChain& chain, std::size_t start,
                          std::size_t trials, std::uint64_t seed,
                          std::size_t max_steps = 10'000'000);

}  // namespace clrearly::markov
