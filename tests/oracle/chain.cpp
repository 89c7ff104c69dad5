#include "oracle/chain.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace clrearly::markov {

namespace {

void check_probability_block(const util::Matrix& m, const char* what) {
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      const double p = m(i, j);
      if (!(p >= 0.0 && p <= 1.0) || std::isnan(p)) {
        throw std::invalid_argument(
            std::string("AbsorbingChain: ") + what +
            " entry outside [0,1]");
      }
    }
  }
}

/// Every probability in [0, 1] and every row of [Q | R] summing to 1.
void check_probabilities(const util::Matrix& q, const util::Matrix& r,
                         double row_sum_tol) {
  check_probability_block(q, "Q");
  check_probability_block(r, "R");
  for (std::size_t i = 0; i < q.rows(); ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < q.cols(); ++j) row_sum += q(i, j);
    for (std::size_t k = 0; k < r.cols(); ++k) row_sum += r(i, k);
    if (std::abs(row_sum - 1.0) > row_sum_tol) {
      throw std::invalid_argument(
          "AbsorbingChain: transition row does not sum to 1");
    }
  }
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double sum(const std::vector<double>& a) {
  double acc = 0.0;
  for (double x : a) acc += x;
  return acc;
}

/// b0[k] = sum_i row0[i] * r(i, k) — row 0 of B = N R without forming B.
void row0_absorption(const std::vector<double>& row0, const util::Matrix& r,
                     std::vector<double>& b0) {
  b0.assign(r.cols(), 0.0);
  for (std::size_t i = 0; i < r.rows(); ++i) {
    const double x = row0[i];
    if (x == 0.0) continue;
    for (std::size_t k = 0; k < r.cols(); ++k) b0[k] += x * r(i, k);
  }
}

/// rhs for the second moment of time-to-absorption. With deterministic
/// residence r_i and T_i = r_i + T_next:
///   E[T_i^2] = r_i^2 + 2 r_i (Q t)_i + (Q s)_i
///     =>  s = N (r.^2 + 2 r .* (Q t))   with t = N r.
void second_moment_rhs(const std::vector<double>& residence,
                       const std::vector<double>& qt,
                       std::vector<double>& rhs) {
  rhs.resize(residence.size());
  for (std::size_t i = 0; i < residence.size(); ++i) {
    rhs[i] = residence[i] * residence[i] + 2.0 * residence[i] * qt[i];
  }
}

}  // namespace

/// Deferred analysis state: the full fundamental matrix, absorption matrix
/// and moment vectors, each materialized at most once, on first access.
struct AbsorbingChain::Lazy {
  std::once_flag n_once, b_once, t_once, m_once;
  util::Matrix n;               // fundamental matrix N = (I - Q)^{-1}
  util::Matrix b;               // absorption probabilities B = N R
  std::vector<double> t;        // expected time-to-absorption per state
  std::vector<double> m;        // E[T^2] per start state
};

AbsorbingChain::AbsorbingChain(util::Matrix q, util::Matrix r,
                               std::vector<double> residence_times,
                               double row_sum_tol)
    : q_(std::move(q)), r_(std::move(r)),
      residence_(std::move(residence_times)),
      lazy_(std::make_unique<Lazy>()) {
  if (!q_.square()) {
    throw std::invalid_argument("AbsorbingChain: Q must be square");
  }
  const std::size_t t = q_.rows();
  if (t == 0) {
    throw std::invalid_argument("AbsorbingChain: need at least one transient state");
  }
  if (r_.rows() != t) {
    throw std::invalid_argument("AbsorbingChain: R row count must match Q");
  }
  if (r_.cols() == 0) {
    throw std::invalid_argument("AbsorbingChain: need at least one absorbing state");
  }
  if (residence_.size() != t) {
    throw std::invalid_argument(
        "AbsorbingChain: residence time vector length must match Q");
  }
  for (double rt : residence_) {
    if (rt < 0.0 || std::isnan(rt)) {
      throw std::invalid_argument("AbsorbingChain: negative residence time");
    }
  }
  check_probabilities(q_, r_, row_sum_tol);

  // Factor I - Q once; singular means some transient state cannot be
  // absorbed. One adjoint solve (I - Q)^T x = e_0 yields row 0 of the
  // fundamental matrix, from which every row-0 metric is a dot product.
  lu_ = util::LuDecomposition(util::Matrix::identity(t) - q_);
  std::vector<double> e0(t, 0.0);
  e0[0] = 1.0;
  row0_ = lu_.solve_transposed(e0);
  t0_ = dot(row0_, residence_);
  steps0_ = sum(row0_);
  row0_absorption(row0_, r_, b0_);
}

AbsorbingChain::AbsorbingChain(const AbsorbingChain& other)
    : q_(other.q_), r_(other.r_), residence_(other.residence_),
      lu_(other.lu_), row0_(other.row0_), b0_(other.b0_), t0_(other.t0_),
      steps0_(other.steps0_), lazy_(std::make_unique<Lazy>()) {}

AbsorbingChain::AbsorbingChain(AbsorbingChain&&) noexcept = default;
AbsorbingChain& AbsorbingChain::operator=(AbsorbingChain&&) noexcept = default;
AbsorbingChain::~AbsorbingChain() = default;

AbsorbingChain& AbsorbingChain::operator=(const AbsorbingChain& other) {
  if (this != &other) {
    q_ = other.q_;
    r_ = other.r_;
    residence_ = other.residence_;
    lu_ = other.lu_;
    row0_ = other.row0_;
    b0_ = other.b0_;
    t0_ = other.t0_;
    steps0_ = other.steps0_;
    lazy_ = std::make_unique<Lazy>();
  }
  return *this;
}

const util::Matrix& AbsorbingChain::fundamental() const {
  std::call_once(lazy_->n_once, [this] {
    lazy_->n = lu_.inverse();
  });
  return lazy_->n;
}

const util::Matrix& AbsorbingChain::absorption_probabilities() const {
  std::call_once(lazy_->b_once, [this] {
    lazy_->b = lu_.solve(r_);
  });
  return lazy_->b;
}

const std::vector<double>& AbsorbingChain::full_times() const {
  std::call_once(lazy_->t_once, [this] {
    lazy_->t = lu_.solve(residence_);
  });
  return lazy_->t;
}

const std::vector<double>& AbsorbingChain::second_moments() const {
  std::call_once(lazy_->m_once, [this] {
    const std::vector<double>& t = full_times();
    const std::vector<double> qt = q_.apply(t);
    std::vector<double> rhs;
    second_moment_rhs(residence_, qt, rhs);
    lazy_->m = lu_.solve(rhs);
  });
  return lazy_->m;
}

std::vector<double> AbsorbingChain::expected_visits(std::size_t start) const {
  if (start >= num_transient()) {
    throw std::out_of_range("AbsorbingChain::expected_visits");
  }
  if (start == 0) return row0_;
  const util::Matrix& n = fundamental();
  std::vector<double> visits(num_transient());
  for (std::size_t j = 0; j < num_transient(); ++j) visits[j] = n(start, j);
  return visits;
}

double AbsorbingChain::expected_time(std::size_t start) const {
  if (start >= num_transient()) {
    throw std::out_of_range("AbsorbingChain::expected_time");
  }
  if (start == 0) return t0_;
  return full_times()[start];
}

double AbsorbingChain::expected_time(
    const std::vector<double>& start_distribution) const {
  if (start_distribution.size() != num_transient()) {
    throw std::invalid_argument(
        "AbsorbingChain::expected_time: distribution length mismatch");
  }
  const std::vector<double>& t = full_times();
  double acc = 0.0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    acc += start_distribution[i] * t[i];
  }
  return acc;
}

double AbsorbingChain::expected_steps(std::size_t start) const {
  if (start >= num_transient()) {
    throw std::out_of_range("AbsorbingChain::expected_steps");
  }
  if (start == 0) return steps0_;
  const util::Matrix& n = fundamental();
  double acc = 0.0;
  for (std::size_t j = 0; j < num_transient(); ++j) acc += n(start, j);
  return acc;
}

double AbsorbingChain::absorption_probability(std::size_t start,
                                              std::size_t absorbing) const {
  if (start >= num_transient() || absorbing >= num_absorbing()) {
    throw std::out_of_range("AbsorbingChain::absorption_probability");
  }
  if (start == 0) return b0_[absorbing];
  return absorption_probabilities()(start, absorbing);
}

double AbsorbingChain::time_variance(std::size_t start) const {
  if (start >= num_transient()) {
    throw std::out_of_range("AbsorbingChain::time_variance");
  }
  const double m1 = full_times()[start];
  return second_moments()[start] - m1 * m1;
}

SimulationResult simulate(const AbsorbingChain& chain, std::size_t start,
                          std::size_t trials, std::uint64_t seed,
                          std::size_t max_steps) {
  if (start >= chain.num_transient()) {
    throw std::out_of_range("simulate: bad start state");
  }
  if (trials == 0) {
    throw std::invalid_argument("simulate: trials must be positive");
  }
  util::Rng rng(seed);
  SimulationResult result;
  result.absorption_frequency.assign(chain.num_absorbing(), 0.0);

  const std::size_t t = chain.num_transient();
  double total_time = 0.0;
  double total_steps = 0.0;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    std::size_t state = start;
    double time = 0.0;
    double steps = 0.0;
    bool absorbed = false;
    // The step cap guards against pathological (near-singular) chains; the
    // constructor already rejected truly non-absorbing ones. A capped walk
    // is reported as truncated, never folded into the aggregates.
    for (std::size_t step = 0; step < max_steps && !absorbed; ++step) {
      time += chain.residence_times()[state];
      steps += 1.0;
      double u = rng.uniform();
      bool moved = false;
      for (std::size_t j = 0; j < t; ++j) {
        u -= chain.q()(state, j);
        if (u < 0.0) {
          state = j;
          moved = true;
          break;
        }
      }
      if (moved) continue;
      for (std::size_t k = 0; k < chain.num_absorbing(); ++k) {
        u -= chain.r()(state, k);
        if (u < 0.0 || k + 1 == chain.num_absorbing()) {
          result.absorption_frequency[k] += 1.0;
          absorbed = true;
          break;
        }
      }
    }
    if (!absorbed) {
      ++result.truncated_trials;
      continue;  // contributes to no aggregate
    }
    total_time += time;
    total_steps += steps;
  }
  static util::Counter& trials_metric =
      util::metric_counter("markov.sim.trials");
  static util::Counter& truncated_metric =
      util::metric_counter("markov.sim.truncated");
  trials_metric.add(trials);
  truncated_metric.add(result.truncated_trials);

  const std::size_t completed = trials - result.truncated_trials;
  if (completed == 0) {
    throw std::runtime_error(
        "simulate: every trial hit the step cap without absorbing");
  }
  result.mean_time = total_time / static_cast<double>(completed);
  result.mean_steps = total_steps / static_cast<double>(completed);
  for (double& f : result.absorption_frequency) {
    f /= static_cast<double>(completed);
  }
  return result;
}

}  // namespace clrearly::markov
