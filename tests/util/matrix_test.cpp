#include "oracle/matrix.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "util/rng.hpp"

namespace clrearly::util {
namespace {

TEST(MatrixTest, DefaultConstructedIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(MatrixTest, SizedConstructorZeroInitializes) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(m(i, j), 0.0);
    }
  }
}

TEST(MatrixTest, FillConstructor) {
  Matrix m(2, 2, 7.5);
  EXPECT_EQ(m(0, 0), 7.5);
  EXPECT_EQ(m(1, 1), 7.5);
}

TEST(MatrixTest, InitializerListLayout) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m(0, 0), 1.0);
  EXPECT_EQ(m(0, 1), 2.0);
  EXPECT_EQ(m(1, 0), 3.0);
  EXPECT_EQ(m(1, 1), 4.0);
}

TEST(MatrixTest, RaggedInitializerListThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(MatrixTest, IdentityHasOnesOnDiagonal) {
  const Matrix id = Matrix::identity(3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(id(i, j), i == j ? 1.0 : 0.0);
    }
  }
}

TEST(MatrixTest, AtThrowsOutOfRange) {
  Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), std::out_of_range);
  EXPECT_THROW(m.at(0, 2), std::out_of_range);
  EXPECT_NO_THROW(m.at(1, 1));
}

TEST(MatrixTest, AdditionAndSubtraction) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{10, 20}, {30, 40}};
  const Matrix sum = a + b;
  EXPECT_EQ(sum(1, 0), 33.0);
  const Matrix diff = b - a;
  EXPECT_EQ(diff(0, 1), 18.0);
}

TEST(MatrixTest, ShapeMismatchThrows) {
  Matrix a(2, 2);
  Matrix b(2, 3);
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(a -= b, std::invalid_argument);
}

TEST(MatrixTest, ScalarMultiply) {
  Matrix a{{1, -2}, {0, 4}};
  const Matrix scaled = 2.0 * a;
  EXPECT_EQ(scaled(0, 1), -4.0);
  EXPECT_EQ(scaled(1, 1), 8.0);
}

TEST(MatrixTest, MatrixProductHandComputed) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  const Matrix p = a * b;
  EXPECT_EQ(p(0, 0), 19.0);
  EXPECT_EQ(p(0, 1), 22.0);
  EXPECT_EQ(p(1, 0), 43.0);
  EXPECT_EQ(p(1, 1), 50.0);
}

TEST(MatrixTest, ProductDimensionMismatchThrows) {
  Matrix a(2, 3);
  Matrix b(2, 3);
  EXPECT_THROW(a * b, std::invalid_argument);
}

TEST(MatrixTest, ProductWithIdentityIsNoop) {
  Matrix a{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}};
  const Matrix id = Matrix::identity(3);
  EXPECT_EQ(a * id, a);
  EXPECT_EQ(id * a, a);
}

TEST(MatrixTest, ApplyMatchesManualMatVec) {
  Matrix a{{1, 2}, {3, 4}};
  const std::vector<double> v{5.0, 6.0};
  const std::vector<double> out = a.apply(v);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 17.0);
  EXPECT_EQ(out[1], 39.0);
}

TEST(MatrixTest, ApplyLengthMismatchThrows) {
  Matrix a(2, 2);
  EXPECT_THROW(a.apply({1.0, 2.0, 3.0}), std::invalid_argument);
}

TEST(MatrixTest, TransposedSwapsIndices) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  const Matrix t = a.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t(2, 1), 6.0);
  EXPECT_EQ(t.transposed(), a);
}

TEST(MatrixTest, BlockExtractsSubmatrix) {
  Matrix a{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}};
  const Matrix b = a.block(1, 1, 2, 2);
  EXPECT_EQ(b(0, 0), 5.0);
  EXPECT_EQ(b(1, 1), 9.0);
  EXPECT_THROW(a.block(2, 2, 2, 2), std::out_of_range);
}

TEST(MatrixTest, MaxAbsDiff) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{1, 2.5}, {2, 4}};
  EXPECT_DOUBLE_EQ(Matrix::max_abs_diff(a, b), 1.0);
  EXPECT_DOUBLE_EQ(Matrix::max_abs_diff(a, a), 0.0);
}

TEST(MatrixTest, RowSums) {
  Matrix a{{1, 2}, {3, -4}};
  const auto sums = a.row_sums();
  EXPECT_DOUBLE_EQ(sums[0], 3.0);
  EXPECT_DOUBLE_EQ(sums[1], -1.0);
}

TEST(MatrixTest, StreamOutputContainsRows) {
  Matrix a{{1, 2}};
  std::ostringstream oss;
  oss << a;
  EXPECT_NE(oss.str().find("[1, 2]"), std::string::npos);
}

// Property: (A*B)*C == A*(B*C) for random small matrices.
TEST(MatrixProperty, ProductIsAssociative) {
  Rng rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    Matrix a(3, 4), b(4, 2), c(2, 5);
    for (auto* m : {&a, &b, &c}) {
      for (std::size_t i = 0; i < m->rows(); ++i) {
        for (std::size_t j = 0; j < m->cols(); ++j) {
          (*m)(i, j) = rng.uniform(-2.0, 2.0);
        }
      }
    }
    const Matrix left = (a * b) * c;
    const Matrix right = a * (b * c);
    EXPECT_LT(Matrix::max_abs_diff(left, right), 1e-12);
  }
}

}  // namespace
}  // namespace clrearly::util
