// Parallel dense/sparse kernels: results must be bit-identical to the
// single-threaded kernels (rows are never split and accumulation order
// is fixed), and the template Map/Zip must agree with the type-erased
// convenience wrappers.
#include <vector>

#include <gtest/gtest.h>

#include "la/kernel_dispatch.h"
#include "tests/la/ulp_test_util.h"
#include "util/rng.h"

namespace turbo::la {
namespace {

using testing::NaiveMatMul;
using testing::NaiveMatMulTransB;

/// Restores the global kernel-thread cap on scope exit so tests cannot
/// leak a cap into each other.
struct KernelThreadGuard {
  ~KernelThreadGuard() { SetKernelThreads(0); }
};

TEST(KernelsParallelTest, MatMulMatchesNaiveReference) {
  KernelThreadGuard guard;
  Rng rng(7);
  // Big enough to clear the parallel flop threshold (2^20).
  const Matrix a = Matrix::Randn(160, 96, &rng);
  const Matrix b = Matrix::Randn(96, 120, &rng);
  const Matrix ref = NaiveMatMul(a, b);
  SetKernelThreads(4);
  EXPECT_TRUE(AllClose(MatMul(a, b), ref, 1e-4f, 1e-4f));
}

TEST(KernelsParallelTest, MatMulBitIdenticalAcrossThreadCounts) {
  KernelThreadGuard guard;
  Rng rng(8);
  const Matrix a = Matrix::Randn(170, 130, &rng);
  const Matrix b = Matrix::Randn(130, 90, &rng);
  SetKernelThreads(1);
  const Matrix serial = MatMul(a, b);
  for (int threads : {2, 4, 8}) {
    SetKernelThreads(threads);
    const Matrix parallel = MatMul(a, b);
    EXPECT_TRUE(AllClose(parallel, serial, 0.0f, 0.0f))
        << threads << " threads changed MatMul bits";
  }
}

TEST(KernelsParallelTest, MatMulTransBBitIdenticalAcrossThreadCounts) {
  KernelThreadGuard guard;
  Rng rng(9);
  // Odd row count of b exercises the unrolled kernel's remainder row.
  const Matrix a = Matrix::Randn(150, 140, &rng);
  const Matrix b = Matrix::Randn(111, 140, &rng);
  SetKernelThreads(1);
  const Matrix serial = dispatch::MatMulTransB(a, b);
  const Matrix ref = NaiveMatMulTransB(a, b);
  EXPECT_TRUE(AllClose(serial, ref, 1e-4f, 1e-4f));
  SetKernelThreads(4);
  EXPECT_TRUE(AllClose(dispatch::MatMulTransB(a, b), serial, 0.0f, 0.0f));
}

TEST(KernelsParallelTest, SparseMultiplyBitIdenticalAcrossThreadCounts) {
  KernelThreadGuard guard;
  Rng rng(10);
  std::vector<Triplet> triplets;
  const size_t n = 400;
  for (size_t r = 0; r < n; ++r) {
    for (int k = 0; k < 8; ++k) {
      triplets.push_back({static_cast<uint32_t>(r),
                          static_cast<uint32_t>(rng.NextInt(0, n - 1)),
                          static_cast<float>(rng.NextDouble(0.1, 1.0))});
    }
  }
  const SparseMatrix m = SparseMatrix::FromTriplets(n, n, triplets);
  const Matrix x = Matrix::Randn(n, 350, &rng);
  SetKernelThreads(1);
  const Matrix serial = dispatch::Spmm(m, x);
  SetKernelThreads(4);
  EXPECT_TRUE(AllClose(dispatch::Spmm(m, x), serial, 0.0f, 0.0f));
}

TEST(KernelsParallelTest, MapTAndZipTElementwise) {
  Rng rng(11);
  const Matrix a = Matrix::Randn(13, 7, &rng);
  const Matrix b = Matrix::Randn(13, 7, &rng);
  const Matrix sq = MapT(a, [](float x) { return x * x; });
  const Matrix h2 = ZipT(a, b, [](float x, float y) { return x * x + y * y; });
  const Matrix re = MapT(a, kernels::Relu);
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      EXPECT_EQ(sq(r, c), a(r, c) * a(r, c));
      EXPECT_EQ(h2(r, c), a(r, c) * a(r, c) + b(r, c) * b(r, c));
      EXPECT_EQ(re(r, c), a(r, c) > 0.0f ? a(r, c) : 0.0f);
    }
  }
}

TEST(KernelsParallelTest, SliceColsExtractsBlock) {
  Matrix a = Matrix::FromRows({{1, 2, 3, 4}, {5, 6, 7, 8}});
  const Matrix s = SliceCols(a, 1, 2);
  ASSERT_EQ(s.rows(), 2u);
  ASSERT_EQ(s.cols(), 2u);
  EXPECT_EQ(s(0, 0), 2.0f);
  EXPECT_EQ(s(0, 1), 3.0f);
  EXPECT_EQ(s(1, 0), 6.0f);
  EXPECT_EQ(s(1, 1), 7.0f);
}

TEST(KernelsParallelTest, KernelThreadsCapIsObservable) {
  KernelThreadGuard guard;
  SetKernelThreads(3);
  EXPECT_EQ(KernelThreads(), 3);
  SetKernelThreads(0);
  EXPECT_GE(KernelThreads(), 1);
}

}  // namespace
}  // namespace turbo::la
