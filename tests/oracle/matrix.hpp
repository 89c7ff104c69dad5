// Dense row-major matrix of double, sized for the small systems that arise in
// absorbing-Markov-chain analysis (tens of states). Deliberately minimal: the
// chain oracle needs construction, element access, slicing, products and a
// linear solve (see linsolve.hpp) — not a general BLAS.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <vector>

namespace clrearly::util {

class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols);

  /// rows x cols matrix with every element set to `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill);

  /// Construct from nested initializer lists; all rows must be equally long.
  /// Throws std::invalid_argument on ragged input.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// n x n identity.
  static Matrix identity(std::size_t n);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return data_.empty(); }
  bool square() const noexcept { return rows_ == cols_; }

  double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  /// Bounds-checked access; throws std::out_of_range.
  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s) noexcept;

  friend Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
  friend Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
  friend Matrix operator*(Matrix lhs, double s) noexcept { return lhs *= s; }
  friend Matrix operator*(double s, Matrix rhs) noexcept { return rhs *= s; }

  /// Matrix product; throws std::invalid_argument on dimension mismatch.
  friend Matrix operator*(const Matrix& a, const Matrix& b);

  /// Matrix-vector product; v.size() must equal cols().
  std::vector<double> apply(const std::vector<double>& v) const;

  /// Transposed copy.
  Matrix transposed() const;

  /// Copy of the sub-matrix [r0, r0+nr) x [c0, c0+nc).
  Matrix block(std::size_t r0, std::size_t c0, std::size_t nr,
               std::size_t nc) const;

  /// max_ij |a_ij - b_ij|; matrices must be the same shape.
  static double max_abs_diff(const Matrix& a, const Matrix& b);

  /// Row sums (length rows()).
  std::vector<double> row_sums() const;

  bool operator==(const Matrix& rhs) const noexcept = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Human-readable form, one row per line — debugging aid only.
std::ostream& operator<<(std::ostream& os, const Matrix& m);

}  // namespace clrearly::util
