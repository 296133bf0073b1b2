// Helpers for the kernel-tier tests: ULP-distance matchers, the list of
// tiers this host supports, and naive reference products.
//
// The SIMD tiers keep the scalar accumulation order, so they differ
// from scalar only by FMA contraction (and lane-wise horizontal sums in
// the dot-product kernel). That difference is a few ULP of each output
// element — except where the true value is the small difference of
// large intermediates (catastrophic cancellation), where a ULP bound on
// the near-zero result is meaningless. The matcher therefore passes an
// element when it is within `max_ulps` OR within an absolute floor
// scaled to the magnitude the accumulation actually ran at.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "la/cpu_features.h"
#include "la/matrix.h"
#include "la/sparse.h"

namespace turbo::la::testing {

/// Monotonic integer key for float bit patterns: adjacent floats map to
/// adjacent integers, so |key(a) - key(b)| is the ULP distance. +0 and
/// -0 map to the same key.
inline int64_t UlpKey(float x) {
  int32_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits >= 0 ? int64_t{bits} : -int64_t{bits & 0x7FFFFFFF};
}

inline int64_t UlpDiff(float a, float b) {
  if (std::isnan(a) || std::isnan(b)) {
    return std::numeric_limits<int64_t>::max();
  }
  const int64_t d = UlpKey(a) - UlpKey(b);
  return d < 0 ? -d : d;
}

/// Expects every element of `got` within `max_ulps` of `ref`, or within
/// `abs_floor` absolutely (cancellation escape hatch). Pass an
/// `abs_floor` scaled to the accumulation magnitude, e.g.
/// 4 * eps * depth * max|A| * max|B| for a depth-`depth` product.
inline void ExpectUlpClose(const Matrix& ref, const Matrix& got,
                           int64_t max_ulps, float abs_floor,
                           const char* what) {
  ASSERT_TRUE(ref.same_shape(got)) << what << ": shape mismatch";
  int64_t worst = 0;
  for (size_t i = 0; i < ref.size(); ++i) {
    const float r = ref.data()[i], g = got.data()[i];
    const int64_t ulps = UlpDiff(r, g);
    if (ulps <= max_ulps || std::abs(r - g) <= abs_floor) {
      worst = std::max(worst, ulps);
      continue;
    }
    FAIL() << what << ": element " << i << " ref=" << r << " got=" << g
           << " ulps=" << ulps << " (max " << max_ulps << ", floor "
           << abs_floor << ")";
  }
  SUCCEED() << what << ": worst ULP distance " << worst;
}

/// Abs-floor for a depth-`depth` float accumulation over operands
/// bounded by `amax` and `bmax`.
inline float AccumFloor(size_t depth, float amax, float bmax) {
  return 4.0f * std::numeric_limits<float>::epsilon() *
         static_cast<float>(depth) * amax * bmax;
}

/// Expects bitwise-identical matrices (scalar-tier identity checks).
inline void ExpectBitEqual(const Matrix& ref, const Matrix& got,
                           const char* what) {
  ASSERT_TRUE(ref.same_shape(got)) << what << ": shape mismatch";
  for (size_t i = 0; i < ref.size(); ++i) {
    int32_t rb, gb;
    std::memcpy(&rb, ref.data() + i, sizeof(rb));
    std::memcpy(&gb, got.data() + i, sizeof(gb));
    ASSERT_EQ(rb, gb) << what << ": element " << i << " ref=" << ref.data()[i]
                      << " got=" << got.data()[i];
  }
}

/// Every kernel tier this binary compiled and this host can run, scalar
/// first. Tests sweep these under ScopedKernelIsa; unsupported tiers are
/// skipped rather than failed.
inline std::vector<KernelIsa> SupportedIsas() {
  std::vector<KernelIsa> isas;
  for (KernelIsa isa :
       {KernelIsa::kScalar, KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    if (IsaSupported(isa)) isas.push_back(isa);
  }
  return isas;
}

// The naive references below accumulate each output element in the same
// order as the scalar tier and share its loop shape (which index is
// innermost). The shape matters for bit-exactness: where the compiler
// may contract a*b+c into an FMA (e.g. -march=x86-64-v3), it decides per
// loop shape, so a reference with a different shape can round
// differently. Without blocking, threading or the kernel table they are
// still an independent check of the scalar tier.

/// C = A * B, row-major ikj: C[i,:] += A[i,p] * B[p,:] for increasing p.
inline Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t p = 0; p < a.cols(); ++p) {
      const float av = a(i, p);
      for (size_t j = 0; j < b.cols(); ++j) c(i, j) += av * b(p, j);
    }
  }
  return c;
}

/// C = A * B^T as one sequential dot product per output element.
inline Matrix NaiveMatMulTransB(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.rows(); ++j) {
      float s = 0.0f;
      for (size_t p = 0; p < a.cols(); ++p) s += a(i, p) * b(j, p);
      c(i, j) = s;
    }
  }
  return c;
}

/// Row-by-row CSR product Y = S * X, accumulating each row's entries in
/// storage order.
inline Matrix NaiveSpmm(const SparseMatrix& s, const Matrix& x) {
  Matrix y(s.rows(), x.cols());
  for (size_t r = 0; r < s.rows(); ++r) {
    for (uint32_t e = s.row_ptr()[r]; e < s.row_ptr()[r + 1]; ++e) {
      for (size_t j = 0; j < x.cols(); ++j) {
        y(r, j) += s.values()[e] * x(s.col_idx()[e], j);
      }
    }
  }
  return y;
}

}  // namespace turbo::la::testing
