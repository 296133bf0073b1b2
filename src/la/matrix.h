// Dense row-major float matrix and the elementwise / structural kernels
// used by the autograd engine and the classical ML models. The GEMM and
// SpMM products live in la/kernel_dispatch.h.
//
// Deliberately simple: contiguous 64-byte-aligned vector storage,
// explicit shapes, bounds-checked accessors (TURBO_CHECK stays on in
// Release), and free-function kernels. No expression templates — the
// autograd layer is the composition mechanism.
#pragma once

#include <cmath>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "util/aligned_alloc.h"
#include "util/check.h"
#include "util/rng.h"

namespace turbo::la {

/// Matrix/SparseMatrix storage alignment: one cache line, which also
/// covers the widest vector load the SIMD kernel tiers issue (64-byte
/// zmm). Row STRIDES are not padded, so only row 0 is guaranteed
/// aligned — the kernel tiers use unaligned loads and this alignment
/// simply keeps them on their fast path for the common row-0 case and
/// avoids cache-line splits for small matrices.
inline constexpr std::size_t kMatrixAlignment = 64;

template <typename T>
using AlignedVector = std::vector<T, util::AlignedAllocator<T, kMatrixAlignment>>;

class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}
  Matrix(size_t rows, size_t cols, std::vector<float> data)
      : rows_(rows), cols_(cols), data_(data.begin(), data.end()) {
    TURBO_CHECK_EQ(data_.size(), rows_ * cols_);
  }

  /// Builds from nested initializer-style rows (test convenience).
  static Matrix FromRows(const std::vector<std::vector<float>>& rows);

  /// Gaussian init with the given stddev.
  static Matrix Randn(size_t rows, size_t cols, Rng* rng,
                      float stddev = 1.0f);

  /// Glorot/Xavier-uniform init: U(-a, a), a = sqrt(6/(fan_in+fan_out)).
  static Matrix Glorot(size_t rows, size_t cols, Rng* rng);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& at(size_t r, size_t c) {
    TURBO_CHECK_LT(r, rows_);
    TURBO_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }
  float at(size_t r, size_t c) const {
    TURBO_CHECK_LT(r, rows_);
    TURBO_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }
  /// Unchecked access for inner loops.
  float& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  float operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float* row(size_t r) { return data_.data() + r * cols_; }
  const float* row(size_t r) const { return data_.data() + r * cols_; }

  bool same_shape(const Matrix& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_;
  }

  void Fill(float v) { std::fill(data_.begin(), data_.end(), v); }
  void SetZero() { Fill(0.0f); }

  /// In-place axpy: this += alpha * other. Shapes must match.
  void Add(const Matrix& other, float alpha = 1.0f);
  /// In-place scale.
  void Scale(float alpha);

  /// Squared Frobenius norm.
  double SquaredNorm() const;
  /// Sum of all entries.
  double Sum() const;
  /// Max |entry|.
  float MaxAbs() const;

  std::string DebugString(int max_rows = 6, int max_cols = 8) const;

 private:
  size_t rows_, cols_;
  AlignedVector<float> data_;
};

// ---- kernels ----

/// Caps the threads dense/sparse kernels may use (benches and tests pin
/// this for reproducible scaling runs). <= 0 restores the hardware
/// default. Thread count never changes numerical results.
void SetKernelThreads(int threads);
int KernelThreads();

namespace detail {
/// Runs `body(r0, r1)` over row ranges covering [0, rows), on the shared
/// pool when rows * flops_per_row clears the parallel threshold (and the
/// SetKernelThreads cap allows it), inline otherwise. Rows are never
/// split, so per-row accumulation order is thread-count independent.
void ParallelRows(size_t rows, size_t flops_per_row,
                  const std::function<void(size_t, size_t)>& body);
}  // namespace detail

Matrix Transpose(const Matrix& a);

/// Elementwise map over a compile-time functor: the hot path used by the
/// autograd ops (the callable is inlined; no std::function dispatch).
template <typename F>
Matrix MapT(const Matrix& a, F&& f) {
  Matrix out(a.rows(), a.cols());
  const float* in = a.data();
  float* o = out.data();
  for (size_t i = 0; i < a.size(); ++i) o[i] = f(in[i]);
  return out;
}

/// Elementwise binary op over a compile-time functor; shapes must match.
template <typename F>
Matrix ZipT(const Matrix& a, const Matrix& b, F&& f) {
  TURBO_CHECK(a.same_shape(b));
  Matrix out(a.rows(), a.cols());
  const float* pa = a.data();
  const float* pb = b.data();
  float* o = out.data();
  for (size_t i = 0; i < a.size(); ++i) o[i] = f(pa[i], pb[i]);
  return out;
}

/// Stateless elementwise functors of the autograd ops. la::dispatch::
/// MapAct with the matching Act is bit-identical to MapT with these (see
/// kernel_dispatch.h).
namespace kernels {
inline constexpr auto Relu = [](float x) { return x > 0.0f ? x : 0.0f; };
inline constexpr auto Tanh = [](float x) { return std::tanh(x); };
inline constexpr auto Sigmoid = [](float x) {
  return x >= 0.0f ? 1.0f / (1.0f + std::exp(-x))
                   : std::exp(x) / (1.0f + std::exp(x));
};
}  // namespace kernels

/// C[r,:] = a[r,:] + bias[0,:]; bias is [1, n].
Matrix AddRowBroadcast(const Matrix& a, const Matrix& bias);

/// C[r,c] = a[r,c] * s[r,0]; s is [m, 1] (per-row gate).
Matrix MulColBroadcast(const Matrix& a, const Matrix& s);

/// Concatenate along columns: [m,n1] ++ [m,n2] -> [m,n1+n2].
Matrix ConcatCols(const Matrix& a, const Matrix& b);

/// Row-wise softmax.
Matrix SoftmaxRows(const Matrix& a);

/// Per-row sums -> [m, 1].
Matrix RowSums(const Matrix& a);

/// Column c as an [m, 1] matrix.
Matrix Col(const Matrix& a, size_t c);

/// Columns [start, start+len) as an [m, len] matrix.
Matrix SliceCols(const Matrix& a, size_t start, size_t len);

/// True if max |a-b| <= atol + rtol*max|b|.
bool AllClose(const Matrix& a, const Matrix& b, float atol = 1e-5f,
              float rtol = 1e-4f);

}  // namespace turbo::la
