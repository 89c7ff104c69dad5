// Small statistics helpers shared by the benches and EXPERIMENTS reporting.
#pragma once

#include <cstddef>
#include <vector>

namespace clrearly::util {

/// Streaming mean / variance / extrema accumulator (Welford).
class RunningStats {
 public:
  /// Throws std::domain_error on a NaN sample (which would silently poison
  /// every derived statistic).
  void add(double x);

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }
  double sum() const noexcept { return mean_ * static_cast<double>(n_); }

  /// Merge another accumulator (parallel Welford combination).
  void merge(const RunningStats& other) noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Arithmetic mean of a sample; 0 for an empty sample.
double mean(const std::vector<double>& xs) noexcept;

/// Median (interpolated for even sizes); copies and sorts internally.
double median(std::vector<double> xs);

/// q-th quantile in [0,1] with linear interpolation; copies and sorts.
/// Throws std::domain_error when the sample contains a NaN (which breaks
/// the sort's ordering and would put the NaN at an arbitrary position).
double quantile(std::vector<double> xs, double q);

/// Percentage change from `base` to `value`: 100 * (value - base) / base.
/// Returns 0 when base == 0 and value == 0; +/-inf preserved otherwise.
double percent_change(double base, double value) noexcept;

/// Closed interval [lo, hi] — the reporting unit of the confidence-interval
/// helpers below.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;

  double half_width() const noexcept { return 0.5 * (hi - lo); }
  bool contains(double x) const noexcept { return x >= lo && x <= hi; }

  bool operator==(const Interval&) const noexcept = default;
};

/// 95% normal-approximation confidence interval for a mean estimated from
/// `n` samples with the given *sample* standard deviation:
///   mean +/- 1.96 * stddev / sqrt(n).
/// Degenerates to [mean, mean] for n < 2 or a non-positive stddev (the
/// caller has no spread information either way).
Interval confidence_interval_95(double mean, double stddev,
                                std::size_t n) noexcept;

/// Wilson score 95% interval for a binomial proportion with `successes`
/// successes out of `n` trials. Unlike the Wald interval it never collapses
/// to a zero-width interval at p = 0 or 1, which is exactly the regime the
/// simulator's rare-error estimates live in. `successes` may be fractional
/// (criticality-weighted outcomes) but must lie in [0, n]. Returns [0, 1]
/// for n == 0; throws std::invalid_argument for negative or NaN successes
/// and for successes > n (an accounting bug upstream, not a proportion).
Interval wilson_interval_95(double successes, std::size_t n);

}  // namespace clrearly::util
