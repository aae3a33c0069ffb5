#include "math/matrix.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

namespace atlas::math {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_) throw std::invalid_argument("Matrix: ragged initializer");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

void Matrix::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

Vec Matrix::row(std::size_t r) const {
  return Vec(data_.begin() + static_cast<std::ptrdiff_t>(r * cols_),
             data_.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols_));
}

void Matrix::set_row(std::size_t r, const Vec& v) {
  if (v.size() != cols_) throw std::invalid_argument("Matrix::set_row: size mismatch");
  std::memcpy(data_.data() + r * cols_, v.data(), cols_ * sizeof(double));
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    throw std::invalid_argument("Matrix::operator+=: shape mismatch");
  }
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    throw std::invalid_argument("Matrix::operator-=: shape mismatch");
  }
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (auto& v : data_) v *= s;
  return *this;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
Matrix operator*(Matrix a, double s) { return a *= s; }

Matrix matmul(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) throw std::invalid_argument("matmul: shape mismatch");
  Matrix c(a.rows(), b.cols(), 0.0);
  // ikj loop order: streams over b's rows, cache-friendly for row-major data.
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      const double* brow = b.data() + k * b.cols();
      double* crow = c.data() + i * c.cols();
      for (std::size_t j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

Vec matvec(const Matrix& a, const Vec& x) {
  if (a.cols() != x.size()) throw std::invalid_argument("matvec: shape mismatch");
  Vec y(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.data() + i * a.cols();
    double acc = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) acc += arow[j] * x[j];
    y[i] = acc;
  }
  return y;
}

Vec matvec_t(const Matrix& a, const Vec& x) {
  if (a.rows() != x.size()) throw std::invalid_argument("matvec_t: shape mismatch");
  Vec y(a.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.data() + i * a.cols();
    const double xi = x[i];
    if (xi == 0.0) continue;
    for (std::size_t j = 0; j < a.cols(); ++j) y[j] += arow[j] * xi;
  }
  return y;
}

double dot(const Vec& a, const Vec& b) {
  if (a.size() != b.size()) throw std::invalid_argument("dot: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

Vec add(Vec a, const Vec& b) {
  if (a.size() != b.size()) throw std::invalid_argument("add: size mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
  return a;
}

Vec sub(Vec a, const Vec& b) {
  if (a.size() != b.size()) throw std::invalid_argument("sub: size mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) a[i] -= b[i];
  return a;
}

Vec scale(Vec a, double s) {
  for (auto& v : a) v *= s;
  return a;
}

double norm2(const Vec& a) { return std::sqrt(dot(a, a)); }

double squared_distance(const Vec& a, const Vec& b) {
  if (a.size() != b.size()) throw std::invalid_argument("squared_distance: size mismatch");
  return squared_distance(a.data(), b.data(), a.size());
}

double squared_distance(const double* a, const double* b, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

}  // namespace atlas::math
