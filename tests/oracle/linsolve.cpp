#include "oracle/linsolve.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "markov/chain_batch.hpp"

namespace clrearly::util {

LuDecomposition::LuDecomposition(Matrix a) : lu_(std::move(a)) {
  if (!lu_.square()) {
    throw std::invalid_argument("LuDecomposition: matrix must be square");
  }
  const std::size_t n = lu_.rows();
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

  double max_entry = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      max_entry = std::max(max_entry, std::abs(lu_(i, j)));
    }
  }
  const double tol = markov::kLuSingularTol * std::max(max_entry, 1.0);

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: bring the largest remaining |entry| in column k up.
    std::size_t pivot_row = k;
    double pivot_mag = std::abs(lu_(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double mag = std::abs(lu_(i, k));
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = i;
      }
    }
    if (pivot_mag <= tol) {
      throw std::domain_error("LuDecomposition: matrix is singular");
    }
    if (pivot_row != k) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(lu_(k, j), lu_(pivot_row, j));
      }
      std::swap(perm_[k], perm_[pivot_row]);
      perm_sign_ = -perm_sign_;
    }
    const double pivot = lu_(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double factor = lu_(i, k) / pivot;
      lu_(i, k) = factor;  // store L's multiplier in place
      if (factor == 0.0) continue;
      for (std::size_t j = k + 1; j < n; ++j) {
        lu_(i, j) -= factor * lu_(k, j);
      }
    }
  }
}

std::vector<double> LuDecomposition::solve(const std::vector<double>& b) const {
  const std::size_t n = dim();
  if (b.size() != n) {
    throw std::invalid_argument("LuDecomposition::solve: rhs length mismatch");
  }
  // Forward substitution with the permuted rhs (L has unit diagonal).
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[perm_[i]];
    for (std::size_t j = 0; j < i; ++j) acc -= lu_(i, j) * x[j];
    x[i] = acc;
  }
  // Back substitution through U.
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu_(ii, j) * x[j];
    x[ii] = acc / lu_(ii, ii);
  }
  return x;
}

std::vector<double> LuDecomposition::solve_transposed(
    const std::vector<double>& b) const {
  const std::size_t n = dim();
  if (b.size() != n) {
    throw std::invalid_argument(
        "LuDecomposition::solve_transposed: rhs length mismatch");
  }
  // With P A = L U (perm_[i] = source row of factored row i):
  //   A^T x = b  <=>  U^T L^T P x = b.
  // Step 1, U^T y = b — U^T is lower triangular, forward substitution.
  std::vector<double> scratch(n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[i];
    for (std::size_t j = 0; j < i; ++j) acc -= lu_(j, i) * scratch[j];
    scratch[i] = acc / lu_(i, i);
  }
  // Step 2, L^T z = y — L^T is unit upper triangular, back substitution
  // (in place over scratch).
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = scratch[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu_(j, ii) * scratch[j];
    scratch[ii] = acc;
  }
  // Step 3, x = P^{-1} z: undo the row permutation.
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) x[perm_[i]] = scratch[i];
  return x;
}

Matrix LuDecomposition::solve(const Matrix& b) const {
  if (b.rows() != dim()) {
    throw std::invalid_argument("LuDecomposition::solve: rhs rows mismatch");
  }
  Matrix x(b.rows(), b.cols());
  std::vector<double> col(b.rows());
  for (std::size_t j = 0; j < b.cols(); ++j) {
    for (std::size_t i = 0; i < b.rows(); ++i) col[i] = b(i, j);
    const std::vector<double> xc = solve(col);
    for (std::size_t i = 0; i < b.rows(); ++i) x(i, j) = xc[i];
  }
  return x;
}

Matrix LuDecomposition::inverse() const {
  return solve(Matrix::identity(dim()));
}

double LuDecomposition::determinant() const noexcept {
  double det = perm_sign_;
  for (std::size_t i = 0; i < dim(); ++i) det *= lu_(i, i);
  return det;
}

std::vector<double> solve_linear(const Matrix& a, const std::vector<double>& b) {
  return LuDecomposition(a).solve(b);
}

Matrix invert(const Matrix& a) { return LuDecomposition(a).inverse(); }

}  // namespace clrearly::util
