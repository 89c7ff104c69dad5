#include "oracle/linsolve.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"

namespace clrearly::util {
namespace {

TEST(LinSolveTest, SolvesHandComputedSystem) {
  // 2x + y = 5, x + 3y = 10  ->  x = 1, y = 3
  const Matrix a{{2, 1}, {1, 3}};
  const auto x = solve_linear(a, {5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(LinSolveTest, SolveRequiresMatchingRhs) {
  LuDecomposition lu(Matrix::identity(3));
  EXPECT_THROW(lu.solve(std::vector<double>{1.0, 2.0}), std::invalid_argument);
}

TEST(LinSolveTest, NonSquareThrows) {
  EXPECT_THROW(LuDecomposition(Matrix(2, 3)), std::invalid_argument);
}

TEST(LinSolveTest, SingularThrows) {
  const Matrix singular{{1, 2}, {2, 4}};
  EXPECT_THROW(LuDecomposition{singular}, std::domain_error);
}

TEST(LinSolveTest, PivotingHandlesZeroLeadingEntry) {
  // Requires a row swap to factor.
  const Matrix a{{0, 1}, {1, 0}};
  const auto x = solve_linear(a, {3.0, 7.0});
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(LinSolveTest, InverseOfIdentityIsIdentity) {
  const Matrix inv = invert(Matrix::identity(4));
  EXPECT_LT(Matrix::max_abs_diff(inv, Matrix::identity(4)), 1e-14);
}

TEST(LinSolveTest, InverseHandComputed) {
  const Matrix a{{4, 7}, {2, 6}};
  const Matrix inv = invert(a);
  // det = 10; inverse = [[0.6, -0.7], [-0.2, 0.4]]
  EXPECT_NEAR(inv(0, 0), 0.6, 1e-12);
  EXPECT_NEAR(inv(0, 1), -0.7, 1e-12);
  EXPECT_NEAR(inv(1, 0), -0.2, 1e-12);
  EXPECT_NEAR(inv(1, 1), 0.4, 1e-12);
}

TEST(LinSolveTest, DeterminantHandComputed) {
  LuDecomposition lu(Matrix{{4, 7}, {2, 6}});
  EXPECT_NEAR(lu.determinant(), 10.0, 1e-12);
}

TEST(LinSolveTest, DeterminantSignWithPermutation) {
  LuDecomposition lu(Matrix{{0, 1}, {1, 0}});
  EXPECT_NEAR(lu.determinant(), -1.0, 1e-12);
}

TEST(LinSolveTest, MatrixRhsSolve) {
  const Matrix a{{2, 0}, {0, 4}};
  const Matrix b{{2, 4}, {8, 12}};
  const Matrix x = LuDecomposition(a).solve(b);
  EXPECT_NEAR(x(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(x(0, 1), 2.0, 1e-12);
  EXPECT_NEAR(x(1, 0), 2.0, 1e-12);
  EXPECT_NEAR(x(1, 1), 3.0, 1e-12);
}

TEST(LinSolveTest, OneByOneSystem) {
  LuDecomposition lu(Matrix{{4.0}});
  const auto x = lu.solve(std::vector<double>{8.0});
  EXPECT_DOUBLE_EQ(x[0], 2.0);
  EXPECT_DOUBLE_EQ(lu.determinant(), 4.0);
  const auto xt = lu.solve_transposed(std::vector<double>{8.0});
  EXPECT_DOUBLE_EQ(xt[0], 2.0);
}

TEST(LinSolveTest, OneByOneNearZeroPivotThrows) {
  // A 1x1 "matrix" below the relative singularity threshold must be
  // rejected, not divided through.
  EXPECT_THROW(LuDecomposition(Matrix{{1e-14}}), std::domain_error);
  EXPECT_THROW(LuDecomposition(Matrix{{0.0}}), std::domain_error);
}

TEST(LinSolveTest, NearSingularButAboveToleranceStaysAccurate) {
  // Condition number ~1e8 — far from the 1e-13 relative pivot cutoff, but
  // close enough to stress the substitution accuracy.
  const double eps = 1e-8;
  const Matrix a{{1.0, 1.0}, {1.0, 1.0 + eps}};
  const auto x = solve_linear(a, {2.0, 2.0 + eps});  // exact solution (1, 1)
  EXPECT_NEAR(x[0], 1.0, 1e-6);
  EXPECT_NEAR(x[1], 1.0, 1e-6);
}

TEST(LinSolveTest, TransposedSolveMatchesTransposedMatrix) {
  const Matrix a{{0, 1, 2}, {3, 1, 0}, {1, 0, 5}};  // forces pivoting
  const std::vector<double> b{1.0, -2.0, 4.0};
  const auto x = LuDecomposition(a).solve_transposed(b);
  const auto x_ref = LuDecomposition(a.transposed()).solve(b);
  ASSERT_EQ(x.size(), x_ref.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], x_ref[i], 1e-12);
}

TEST(LinSolveTest, TransposedSolveExtractsInverseRow) {
  // Row i of A^{-1} is the adjoint solution for e_i — the identity the
  // chain kernel's single-solve path rests on.
  const Matrix a{{4, 7, 1}, {2, 6, 0}, {1, 1, 3}};
  const LuDecomposition lu(a);
  const Matrix inv = lu.inverse();
  for (std::size_t row = 0; row < 3; ++row) {
    std::vector<double> e(3, 0.0);
    e[row] = 1.0;
    const auto x = lu.solve_transposed(e);
    for (std::size_t j = 0; j < 3; ++j) EXPECT_NEAR(x[j], inv(row, j), 1e-12);
  }
}

class LinSolveRandomTest : public ::testing::TestWithParam<std::size_t> {};

// Property: A * A^{-1} == I for random diagonally dominant matrices.
TEST_P(LinSolveRandomTest, InverseRoundTrips) {
  const std::size_t n = GetParam();
  Rng rng(1000 + n);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double row_mass = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = rng.uniform(-1.0, 1.0);
      row_mass += std::abs(a(i, j));
    }
    a(i, i) += row_mass + 1.0;  // diagonal dominance -> well conditioned
  }
  const Matrix inv = invert(a);
  EXPECT_LT(Matrix::max_abs_diff(a * inv, Matrix::identity(n)), 1e-10);
  EXPECT_LT(Matrix::max_abs_diff(inv * a, Matrix::identity(n)), 1e-10);
}

// Property: solve() agrees with inverse-based solution.
TEST_P(LinSolveRandomTest, SolveMatchesInverseApply) {
  const std::size_t n = GetParam();
  Rng rng(2000 + n);
  Matrix a(n, n);
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = rng.uniform(-5.0, 5.0);
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
    a(i, i) += static_cast<double>(n) + 1.0;
  }
  const LuDecomposition lu(a);
  const auto x = lu.solve(b);
  const auto x_via_inverse = lu.inverse().apply(b);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i], x_via_inverse[i], 1e-10);
  }
  // Residual check against the original system.
  const auto ax = a.apply(x);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(ax[i], b[i], 1e-9);
  }
}

// Property: the adjoint solve for e_i reproduces row i of the inverse.
TEST_P(LinSolveRandomTest, TransposedSolveMatchesInverseRows) {
  const std::size_t n = GetParam();
  Rng rng(3000 + n);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
    a(i, i) += static_cast<double>(n) + 1.0;
  }
  const LuDecomposition lu(a);
  const Matrix inv = lu.inverse();
  std::vector<double> e(n, 0.0);
  for (std::size_t row = 0; row < n; ++row) {
    std::fill(e.begin(), e.end(), 0.0);
    e[row] = 1.0;
    const std::vector<double> x = lu.solve_transposed(e);
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(x[j], inv(row, j), 1e-10) << "row " << row << " col " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LinSolveRandomTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace clrearly::util
