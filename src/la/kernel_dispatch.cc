#include "la/kernel_dispatch.h"

#include <algorithm>

namespace turbo::la::dispatch {

namespace internal {

const la::internal::KernelTable& ActiveTable() {
  switch (ActiveIsa()) {
    case KernelIsa::kScalar:
      return la::internal::ScalarKernels();
    case KernelIsa::kAvx2:
#if defined(TURBO_LA_HAVE_AVX2)
      return la::internal::Avx2Kernels();
#else
      break;
#endif
    case KernelIsa::kAvx512:
#if defined(TURBO_LA_HAVE_AVX512)
      return la::internal::Avx512Kernels();
#else
      break;
#endif
  }
  return la::internal::ScalarKernels();
}

}  // namespace internal

namespace {

// Depth blocking keeps the active slice of b in cache for large k; blocks
// advance in increasing p, so each c[i,j] accumulates depth-sequentially
// regardless of tier.
constexpr size_t kDepthBlock = 128;

// Resolves the addend pointer/stride for the fused epilogues. Returns
// stride 0 for a [1,n] broadcast bias, n for a full [m,n] addend.
const float* AddendPtr(const Matrix* addend, size_t m, size_t n,
                       size_t* stride) {
  if (addend == nullptr) {
    *stride = 0;
    return nullptr;
  }
  TURBO_CHECK_EQ(addend->cols(), n);
  if (addend->rows() == 1) {
    *stride = 0;
  } else {
    TURBO_CHECK_EQ(addend->rows(), m);
    *stride = n;
  }
  return addend->data();
}

Matrix MatMulImpl(const Matrix& a, const Matrix& b, const Matrix* addend,
                  Act act, bool fused) {
  TURBO_CHECK_EQ(a.cols(), b.rows());
  Matrix c(a.rows(), b.cols());
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  size_t add_stride = 0;
  const float* add =
      fused ? AddendPtr(addend, m, n, &add_stride) : nullptr;
  const auto& t = internal::ActiveTable();
  detail::ParallelRows(m, k * n, [&](size_t r0, size_t r1) {
    for (size_t p0 = 0; p0 < k; p0 += kDepthBlock) {
      const size_t p1 = std::min(k, p0 + kDepthBlock);
      t.gemm_rows(a.data(), b.data(), c.data(), k, n, r0, r1, p0, p1);
    }
    if (fused) t.epilogue_rows(c.data(), add, add_stride, n, r0, r1, act);
  });
  return c;
}

Matrix SpmmImpl(const SparseMatrix& s, const Matrix& x, const Matrix* addend,
                Act act, bool fused) {
  TURBO_CHECK_EQ(s.cols(), x.rows());
  Matrix y(s.rows(), x.cols());
  const size_t m = s.rows(), n = x.cols();
  size_t add_stride = 0;
  const float* add =
      fused ? AddendPtr(addend, m, n, &add_stride) : nullptr;
  const auto& t = internal::ActiveTable();
  const size_t avg_flops =
      m == 0 ? 0 : std::max<size_t>(1, s.nnz() * n / m);
  detail::ParallelRows(m, avg_flops, [&](size_t r0, size_t r1) {
    t.spmm_rows(s.row_ptr().data(), s.col_idx().data(), s.values().data(),
                x.data(), y.data(), n, r0, r1);
    if (fused) t.epilogue_rows(y.data(), add, add_stride, n, r0, r1, act);
  });
  return y;
}

}  // namespace

Matrix MatMul(const Matrix& a, const Matrix& b) {
  return MatMulImpl(a, b, nullptr, Act::kIdentity, /*fused=*/false);
}

Matrix MatMulBiasAct(const Matrix& a, const Matrix& b, const Matrix* addend,
                     Act act) {
  return MatMulImpl(a, b, addend, act, /*fused=*/true);
}

Matrix MatMulTransB(const Matrix& a, const Matrix& b) {
  TURBO_CHECK_EQ(a.cols(), b.cols());
  Matrix c(a.rows(), b.rows());
  const size_t m = a.rows(), k = a.cols(), n = b.rows();
  const auto& t = internal::ActiveTable();
  detail::ParallelRows(m, k * n, [&](size_t r0, size_t r1) {
    t.gemm_transb_rows(a.data(), b.data(), c.data(), k, n, r0, r1);
  });
  return c;
}

Matrix Spmm(const SparseMatrix& s, const Matrix& x) {
  return SpmmImpl(s, x, nullptr, Act::kIdentity, /*fused=*/false);
}

Matrix SpmmBiasAct(const SparseMatrix& s, const Matrix& x,
                   const Matrix* addend, Act act) {
  return SpmmImpl(s, x, addend, act, /*fused=*/true);
}

Matrix MapAct(const Matrix& a, Act act) {
  Matrix out(a.rows(), a.cols());
  internal::ActiveTable().map_act(act, a.data(), out.data(), a.size());
  return out;
}

}  // namespace turbo::la::dispatch
