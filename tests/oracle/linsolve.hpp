// Direct dense linear solvers built on util::Matrix — part of the
// tests-only chain oracle (tests/oracle), never linked into the library.
//
// The Markov-chain analysis needs (I - Q)^{-1} applied to residence-time
// vectors and to the absorbing-transition block R. Chains stay small (a few
// states per inter-checkpoint interval), so an O(n^3) partially-pivoted LU is
// the right tool; no iterative machinery is warranted.
//
// markov::AbsorbingChain factors once and then performs O(n^2) solves
// against the stored factors — including *adjoint* (transposed) solves, which
// extract a single row of A^{-1} without ever forming the inverse. The
// batched chain kernel (markov/chain_batch_kernel.hpp) replays exactly these
// operations lane by lane.
#pragma once

#include <vector>

#include "oracle/matrix.hpp"

namespace clrearly::util {

/// Partially pivoted LU decomposition of a square matrix.
///
/// Factorization is performed once, at construction; solves against
/// multiple right-hand sides reuse it. Throws std::invalid_argument
/// for non-square input and std::domain_error when the matrix is numerically
/// singular.
class LuDecomposition {
 public:
  /// Empty (0 x 0) decomposition, to be assigned a factored one.
  LuDecomposition() = default;

  explicit LuDecomposition(Matrix a);

  /// Solve A x = b. b.size() must equal the matrix dimension.
  std::vector<double> solve(const std::vector<double>& b) const;

  /// Solve A^T x = b — the adjoint solve. Row `i` of A^{-1} is the solution
  /// for b = e_i, so a single adjoint solve replaces the n column solves of
  /// inverse() when only one row is needed.
  std::vector<double> solve_transposed(const std::vector<double>& b) const;

  /// Solve A X = B column-by-column.
  Matrix solve(const Matrix& b) const;

  /// A^{-1} (solve against the identity).
  Matrix inverse() const;

  /// det(A), from the product of U's diagonal and the permutation sign.
  double determinant() const noexcept;

  std::size_t dim() const noexcept { return lu_.rows(); }

 private:

  Matrix lu_;                  // packed L (unit diagonal, below) and U (above)
  std::vector<std::size_t> perm_;
  int perm_sign_ = 1;
};

/// One-shot convenience: solve A x = b.
std::vector<double> solve_linear(const Matrix& a, const std::vector<double>& b);

/// One-shot convenience: A^{-1}.
Matrix invert(const Matrix& a);

}  // namespace clrearly::util
