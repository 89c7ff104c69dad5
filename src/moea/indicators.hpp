// Multi-objective quality indicators beyond hypervolume, for comparing DSE
// fronts (all for minimization):
//
//   * additive epsilon indicator — smallest shift making A cover R
//   * two-set coverage C(A, B)   — fraction of B dominated by A
#pragma once

#include "moea/pareto.hpp"

namespace clrearly::moea {

/// Additive epsilon indicator: the smallest eps such that every reference
/// point is weakly dominated by some front point shifted by eps
/// (front[i] - eps <= ref[j] componentwise). <= 0 means the front already
/// covers the reference.
double epsilon_indicator(const std::vector<Objectives>& front,
                         const std::vector<Objectives>& reference);

/// Two-set coverage C(a, b): fraction of points in `b` weakly dominated by
/// at least one point of `a`. C(a, b) = 1 means a completely covers b.
/// Asymmetric: compare both directions. Throws when `b` is empty.
double coverage(const std::vector<Objectives>& a,
                const std::vector<Objectives>& b);

}  // namespace clrearly::moea
