#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace clrearly::util {

void RunningStats::add(double x) {
  if (std::isnan(x)) {
    // A NaN would silently poison mean/m2 and break the min/max ordering
    // below; fail loudly instead of producing a plausible-looking table.
    throw std::domain_error("RunningStats::add: NaN sample");
  }
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double n_total = na + nb;
  mean_ += delta * nb / n_total;
  m2_ += other.m2_ + delta * delta * na * nb / n_total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double mean(const std::vector<double>& xs) noexcept {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile: q outside [0,1]");
  for (double x : xs) {
    // NaN breaks the strict-weak-ordering sort below, so its position —
    // and every interpolated quantile — would be arbitrary.
    if (std::isnan(x)) throw std::domain_error("quantile: NaN sample");
  }
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

Interval confidence_interval_95(double mean, double stddev,
                                std::size_t n) noexcept {
  constexpr double kZ95 = 1.959963984540054;
  if (n < 2 || stddev <= 0.0) return Interval{mean, mean};
  const double half = kZ95 * stddev / std::sqrt(static_cast<double>(n));
  return Interval{mean - half, mean + half};
}

Interval wilson_interval_95(double successes, std::size_t n) {
  if (!(successes >= 0.0)) {  // negative or NaN
    throw std::invalid_argument("wilson_interval_95: negative successes");
  }
  if (n == 0) return Interval{0.0, 1.0};
  const double nn = static_cast<double>(n);
  if (successes > nn) {
    // More successes than trials is an accounting bug upstream, not a
    // proportion to clamp — rejecting it matches the negative path.
    throw std::invalid_argument(
        "wilson_interval_95: successes exceed trials");
  }
  constexpr double kZ95 = 1.959963984540054;
  const double p = successes / nn;
  const double z2 = kZ95 * kZ95;
  const double denom = 1.0 + z2 / nn;
  const double center = p + z2 / (2.0 * nn);
  const double spread =
      kZ95 * std::sqrt(p * (1.0 - p) / nn + z2 / (4.0 * nn * nn));
  return Interval{std::max(0.0, (center - spread) / denom),
                  std::min(1.0, (center + spread) / denom)};
}

double percent_change(double base, double value) noexcept {
  if (base == 0.0) {
    if (value == 0.0) return 0.0;
    return value > 0.0 ? std::numeric_limits<double>::infinity()
                       : -std::numeric_limits<double>::infinity();
  }
  return 100.0 * (value - base) / base;
}

}  // namespace clrearly::util
