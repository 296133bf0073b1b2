// Parameterized gradient checks: every composite op pattern is verified
// across a sweep of shapes and seeds, under every supported kernel ISA.
#include <ostream>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "tests/autograd/gradcheck_test_util.h"

namespace turbo::ag {
namespace {

using testing::ExpectGradsOk;

struct ShapeCase {
  size_t rows;
  size_t cols;
  uint64_t seed;
};

/// Prints a case as e.g. "r7_c3_seed30". gtest_discover_tests names each
/// ctest case after its printed parameter, so this keeps ctest names
/// readable and independent of the struct's raw bytes.
void PrintTo(const ShapeCase& c, std::ostream* os) {
  *os << "r" << c.rows << "_c" << c.cols << "_seed" << c.seed;
}

class OpsPropertyTest : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(OpsPropertyTest, LinearGateChainGradients) {
  const auto& p = GetParam();
  Rng rng(p.seed);
  Tensor x = Param(la::Matrix::Randn(p.rows, p.cols, &rng, 0.6f), "x");
  Tensor w = Param(la::Matrix::Randn(p.cols, 3, &rng, 0.6f), "w");
  Tensor gate = Param(la::Matrix::Randn(p.rows, 1, &rng, 0.6f), "gate");
  ExpectGradsOk({x, w, gate}, [&] {
    return Sum(Tanh(MulColBroadcast(MatMul(x, w), Sigmoid(gate))));
  });
}

TEST_P(OpsPropertyTest, SoftmaxSliceGradients) {
  const auto& p = GetParam();
  Rng rng(p.seed + 1);
  Tensor x = Param(la::Matrix::Randn(p.rows, p.cols, &rng, 0.8f), "x");
  Tensor pick = Constant(la::Matrix::Randn(p.rows, 1, &rng));
  ExpectGradsOk({x}, [&] {
    return Sum(Mul(SliceCols(SoftmaxRows(x), p.cols / 2, 1), pick));
  });
}

TEST_P(OpsPropertyTest, BceGradientsWithRandomWeights) {
  const auto& p = GetParam();
  Rng rng(p.seed + 2);
  Tensor z = Param(la::Matrix::Randn(p.rows, 1, &rng, 1.2f), "z");
  la::Matrix targets(p.rows, 1);
  la::Matrix w(p.rows, 1);
  for (size_t i = 0; i < p.rows; ++i) {
    targets(i, 0) = rng.NextBool(0.5) ? 1.0f : 0.0f;
    w(i, 0) = static_cast<float>(rng.NextDouble(0.0, 3.0));
  }
  w(0, 0) += 0.1f;  // keep the weight sum positive
  ExpectGradsOk({z}, [&] {
    return BceWithLogits(z, targets, w);
  });
}

TEST_P(OpsPropertyTest, SpmmChainGradients) {
  const auto& p = GetParam();
  Rng rng(p.seed + 3);
  std::vector<la::Triplet> trips;
  for (size_t i = 0; i < p.rows * 2; ++i) {
    trips.push_back({static_cast<uint32_t>(rng.NextUint(p.rows)),
                     static_cast<uint32_t>(rng.NextUint(p.rows)),
                     static_cast<float>(rng.NextGaussian())});
  }
  auto adj = la::SparseMatrix::FromTriplets(p.rows, p.rows, trips);
  Tensor x = Param(la::Matrix::Randn(p.rows, p.cols, &rng, 0.5f), "x");
  Tensor w = Param(la::Matrix::Randn(p.cols, 2, &rng, 0.5f), "w");
  ExpectGradsOk({x, w}, [&] {
    return Mean(Tanh(MatMul(SpMM(adj, x), w)));
  });
}

TEST_P(OpsPropertyTest, FusedBiasActGradients) {
  const auto& p = GetParam();
  Rng rng(p.seed + 5);
  std::vector<la::Triplet> trips;
  for (size_t i = 0; i < p.rows * 2; ++i) {
    trips.push_back({static_cast<uint32_t>(rng.NextUint(p.rows)),
                     static_cast<uint32_t>(rng.NextUint(p.rows)),
                     static_cast<float>(rng.NextGaussian())});
  }
  auto adj = la::SparseMatrix::FromTriplets(p.rows, p.rows, trips);
  Tensor x = Param(la::Matrix::Randn(p.rows, p.cols, &rng, 0.5f), "x");
  Tensor w = Param(la::Matrix::Randn(p.cols, 2, &rng, 0.5f), "w");
  Tensor bias = Param(la::Matrix::Randn(1, 2, &rng, 0.5f), "bias");
  Tensor self = Param(la::Matrix::Randn(p.rows, 2, &rng, 0.5f), "self");
  for (la::Act act : {la::Act::kIdentity, la::Act::kRelu}) {
    // The MLP-head shape (bias) and the SAGE-layer shape (full addend),
    // each also without an addend.
    ExpectGradsOk({x, w, bias}, [&] {
      return Mean(Tanh(MatMulBiasAct(x, w, bias, act)));
    });
    ExpectGradsOk({x, w}, [&] {
      return Mean(Tanh(MatMulBiasAct(x, w, nullptr, act)));
    });
    ExpectGradsOk({x, w, self}, [&] {
      return Mean(Tanh(SpMMBiasAct(adj, MatMul(x, w), self, act)));
    });
    ExpectGradsOk({x, w}, [&] {
      return Mean(Tanh(SpMMBiasAct(adj, MatMul(x, w), nullptr, act)));
    });
  }
}

TEST_P(OpsPropertyTest, ValueIdentities) {
  const auto& p = GetParam();
  Rng rng(p.seed + 4);
  Tensor a = Constant(la::Matrix::Randn(p.rows, p.cols, &rng));
  Tensor b = Constant(la::Matrix::Randn(p.rows, p.cols, &rng));
  // a - b == a + (-1 * b)
  EXPECT_TRUE(la::AllClose(Sub(a, b)->value,
                           Add(a, ScalarMul(b, -1.0f))->value));
  // sum == rowsums then sum
  EXPECT_NEAR(Sum(a)->value(0, 0), Sum(RowSums(a))->value(0, 0), 1e-3);
  // mean * size == sum
  EXPECT_NEAR(Mean(a)->value(0, 0) * static_cast<float>(p.rows * p.cols),
              Sum(a)->value(0, 0), 1e-2);
  // concat then slice recovers the parts
  Tensor cat = ConcatCols(a, b);
  EXPECT_TRUE(la::AllClose(SliceCols(cat, 0, p.cols)->value, a->value));
  EXPECT_TRUE(
      la::AllClose(SliceCols(cat, p.cols, p.cols)->value, b->value));
}

INSTANTIATE_TEST_SUITE_P(Shapes, OpsPropertyTest,
                         ::testing::Values(ShapeCase{1, 1, 10},
                                           ShapeCase{2, 5, 20},
                                           ShapeCase{7, 3, 30},
                                           ShapeCase{12, 8, 40}));

}  // namespace
}  // namespace turbo::ag
