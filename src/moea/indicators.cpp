#include "moea/indicators.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace clrearly::moea {

double epsilon_indicator(const std::vector<Objectives>& front,
                         const std::vector<Objectives>& reference) {
  if (front.empty() || reference.empty()) {
    throw std::invalid_argument("epsilon_indicator: empty input");
  }
  double eps = -std::numeric_limits<double>::infinity();
  for (const Objectives& r : reference) {
    // Smallest shift with which *some* front point covers r.
    double best_for_r = std::numeric_limits<double>::infinity();
    for (const Objectives& f : front) {
      if (f.size() != r.size()) {
        throw std::invalid_argument("epsilon_indicator: dimension mismatch");
      }
      double needed = -std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < f.size(); ++i) {
        needed = std::max(needed, f[i] - r[i]);
      }
      best_for_r = std::min(best_for_r, needed);
    }
    eps = std::max(eps, best_for_r);
  }
  return eps;
}

double coverage(const std::vector<Objectives>& a,
                const std::vector<Objectives>& b) {
  if (b.empty()) {
    throw std::invalid_argument("coverage: empty second set");
  }
  std::size_t covered = 0;
  for (const Objectives& q : b) {
    for (const Objectives& p : a) {
      if (p.size() != q.size()) {
        throw std::invalid_argument("coverage: dimension mismatch");
      }
      // Weak domination: p <= q everywhere.
      bool weakly = true;
      for (std::size_t i = 0; i < p.size(); ++i) {
        if (p[i] > q[i]) {
          weakly = false;
          break;
        }
      }
      if (weakly) {
        ++covered;
        break;
      }
    }
  }
  return static_cast<double>(covered) / static_cast<double>(b.size());
}

}  // namespace clrearly::moea
