#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace atlas::math {

/// Plain dynamic vector of doubles. We use std::vector directly so call sites
/// interoperate with the standard library; `Vec` is just the canonical alias.
using Vec = std::vector<double>;

/// Dense row-major matrix of doubles.
///
/// Sized for this project's needs: GP Gram matrices up to a few hundred rows
/// and MLP weight matrices up to 256x256. All operations are straightforward
/// loops — no BLAS — which is plenty at these sizes and keeps the build
/// dependency-free.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);
  /// Build from nested initializer list (rows of equal length).
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  double* data() noexcept { return data_.data(); }
  const double* data() const noexcept { return data_.data(); }

  /// Reshape to rows x cols, keeping the storage when it is large enough
  /// (for reused scratch). Elements keep their flat positions, new ones are
  /// zero; callers overwrite what they read.
  void resize(std::size_t rows, std::size_t cols);

  /// Copy of row r as a Vec.
  Vec row(std::size_t r) const;
  /// Overwrite row r.
  void set_row(std::size_t r, const Vec& v);

  Matrix transposed() const;

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double s);

  static Matrix identity(std::size_t n);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

Matrix operator+(Matrix a, const Matrix& b);
Matrix operator-(Matrix a, const Matrix& b);
Matrix operator*(Matrix a, double s);

/// C = A * B.
Matrix matmul(const Matrix& a, const Matrix& b);
/// y = A * x.
Vec matvec(const Matrix& a, const Vec& x);
/// y = A^T * x (without materializing the transpose).
Vec matvec_t(const Matrix& a, const Vec& x);

/// Elementary Vec algebra used across the project.
double dot(const Vec& a, const Vec& b);
Vec add(Vec a, const Vec& b);
Vec sub(Vec a, const Vec& b);
Vec scale(Vec a, double s);
/// Euclidean norm.
double norm2(const Vec& a);
/// Squared Euclidean distance.
double squared_distance(const Vec& a, const Vec& b);
/// The same over n doubles read in place (e.g. two matrix rows).
double squared_distance(const double* a, const double* b, std::size_t n);

}  // namespace atlas::math
