// Numerical gradient verification for every differentiable operator,
// under every kernel ISA the host supports.
#include "autograd/gradcheck.h"

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "tests/autograd/gradcheck_test_util.h"

namespace turbo::ag {
namespace {

using la::Matrix;
using testing::ExpectGradsOk;

class GradCheckTest : public ::testing::Test {
 protected:
  Rng rng_{123};

  Tensor RandParam(size_t r, size_t c, const char* name,
                   float stddev = 0.8f) {
    return Param(Matrix::Randn(r, c, &rng_, stddev), name);
  }

  /// Randn shifted away from zero, so that values (and the products)
  /// feeding a relu/lrelu stay off the kink: a finite difference
  /// straddling it measures neither one-sided derivative.
  Tensor KinkFreeParam(size_t r, size_t c, const char* name) {
    return Param(la::MapT(Matrix::Randn(r, c, &rng_),
                          [](float v) { return v + (v >= 0 ? 0.5f : -0.5f); }),
                 name);
  }
};

TEST_F(GradCheckTest, AddSubMul) {
  Tensor a = RandParam(3, 4, "a");
  Tensor b = RandParam(3, 4, "b");
  ExpectGradsOk({a, b}, [&] { return Sum(Mul(Add(a, b), Sub(a, b))); });
}

TEST_F(GradCheckTest, MatMulChain) {
  Tensor a = RandParam(3, 4, "a");
  Tensor b = RandParam(4, 2, "b");
  Tensor c = RandParam(2, 3, "c");
  ExpectGradsOk({a, b, c}, [&] { return Sum(MatMul(MatMul(a, b), c)); });
}

TEST_F(GradCheckTest, RowBroadcastBias) {
  Tensor x = RandParam(4, 3, "x");
  Tensor bias = RandParam(1, 3, "bias");
  ExpectGradsOk({x, bias},
                [&] { return Sum(Tanh(AddRowBroadcast(x, bias))); });
}

TEST_F(GradCheckTest, ColBroadcastGate) {
  Tensor x = RandParam(4, 3, "x");
  Tensor gate = RandParam(4, 1, "gate");
  ExpectGradsOk({x, gate}, [&] { return Sum(MulColBroadcast(x, gate)); });
}

TEST_F(GradCheckTest, NonlinearitiesSmoothRegion) {
  Tensor x = KinkFreeParam(4, 4, "x");
  ExpectGradsOk({x}, [&] { return Sum(Relu(x)); });
  ExpectGradsOk({x}, [&] { return Sum(LeakyRelu(x, 0.2f)); });
  ExpectGradsOk({x}, [&] { return Sum(Mul(Tanh(x), Sigmoid(x))); });
}

TEST_F(GradCheckTest, SoftmaxRows) {
  Tensor x = RandParam(3, 5, "x");
  Tensor picks = Constant(Matrix::Randn(3, 5, &rng_));
  ExpectGradsOk({x}, [&] { return Sum(Mul(SoftmaxRows(x), picks)); });
}

TEST_F(GradCheckTest, ConcatAndSlice) {
  Tensor a = RandParam(3, 2, "a");
  Tensor b = RandParam(3, 3, "b");
  Tensor c = RandParam(3, 1, "c");
  Tensor m = Constant(Matrix::Randn(3, 6, &rng_));
  ExpectGradsOk({a, b, c},
                [&] { return Sum(Mul(ConcatColsN({a, b, c}), m)); });
  ExpectGradsOk({b}, [&] { return Sum(Tanh(SliceCols(b, 1, 2))); });
}

TEST_F(GradCheckTest, RowSums) {
  Tensor x = RandParam(4, 3, "x");
  Tensor g = Constant(Matrix::Randn(4, 1, &rng_));
  ExpectGradsOk({x}, [&] { return Sum(Mul(RowSums(x), g)); });
}

TEST_F(GradCheckTest, SpMM) {
  auto adj = la::SparseMatrix::FromTriplets(
      4, 4, {{0, 1, 0.5f}, {1, 0, 0.5f}, {1, 2, 1.5f}, {2, 3, -1.0f},
             {3, 3, 2.0f}});
  Tensor x = RandParam(4, 3, "x");
  ExpectGradsOk({x}, [&] { return Sum(Tanh(SpMM(adj, x))); });
}

TEST_F(GradCheckTest, MatMulBiasAct) {
  Tensor a = KinkFreeParam(4, 3, "a");
  Tensor b = KinkFreeParam(3, 5, "b");
  Tensor bias = RandParam(1, 5, "bias");
  Tensor full = RandParam(4, 5, "full");
  for (la::Act act : {la::Act::kIdentity, la::Act::kRelu}) {
    ExpectGradsOk({a, b},
                  [&] { return Sum(Tanh(MatMulBiasAct(a, b, nullptr, act))); });
    ExpectGradsOk({a, b, bias},
                  [&] { return Sum(Tanh(MatMulBiasAct(a, b, bias, act))); });
    ExpectGradsOk({a, b, full},
                  [&] { return Sum(Tanh(MatMulBiasAct(a, b, full, act))); });
  }
}

TEST_F(GradCheckTest, SpMMBiasAct) {
  auto adj = la::SparseMatrix::FromTriplets(
      4, 4, {{0, 1, 0.5f}, {1, 0, 0.5f}, {1, 2, 1.5f}, {2, 3, -1.0f},
             {3, 3, 2.0f}});
  Tensor x = KinkFreeParam(4, 3, "x");
  Tensor bias = RandParam(1, 3, "bias");
  Tensor full = RandParam(4, 3, "full");
  for (la::Act act : {la::Act::kIdentity, la::Act::kRelu}) {
    ExpectGradsOk({x},
                  [&] { return Sum(Tanh(SpMMBiasAct(adj, x, nullptr, act))); });
    ExpectGradsOk({x, bias},
                  [&] { return Sum(Tanh(SpMMBiasAct(adj, x, bias, act))); });
    ExpectGradsOk({x, full},
                  [&] { return Sum(Tanh(SpMMBiasAct(adj, x, full, act))); });
  }
}

TEST_F(GradCheckTest, BceWithLogits) {
  Tensor z = RandParam(6, 1, "z");
  Matrix targets(6, 1);
  Matrix w(6, 1);
  for (int i = 0; i < 6; ++i) {
    targets(i, 0) = (i % 2 == 0) ? 1.0f : 0.0f;
    w(i, 0) = (i == 3) ? 0.0f : 1.0f + 0.3f * i;
  }
  ExpectGradsOk({z}, [&] { return BceWithLogits(z, targets, w); });
}

TEST_F(GradCheckTest, MseLoss) {
  Tensor x = RandParam(3, 3, "x");
  Matrix t = Matrix::Randn(3, 3, &rng_);
  ExpectGradsOk({x}, [&] { return MseLoss(x, t); });
}

TEST_F(GradCheckTest, L2Penalty) {
  Tensor a = RandParam(2, 3, "a");
  Tensor b = RandParam(3, 1, "b");
  ExpectGradsOk({a, b}, [&] { return L2Penalty({a, b}, 0.7f); });
}

TEST_F(GradCheckTest, MlpLikeComposite) {
  // A realistic two-layer network with bias, gate and BCE head.
  Tensor x = Constant(Matrix::Randn(5, 4, &rng_));
  Tensor w1 = RandParam(4, 6, "w1");
  Tensor b1 = RandParam(1, 6, "b1");
  Tensor w2 = RandParam(6, 1, "w2");
  Matrix targets(5, 1);
  for (int i = 0; i < 5; ++i) targets(i, 0) = (i < 2) ? 1.0f : 0.0f;
  Matrix w(5, 1, 1.0f);
  ExpectGradsOk({w1, b1, w2}, [&] {
    Tensor h = Tanh(AddRowBroadcast(MatMul(x, w1), b1));
    return BceWithLogits(MatMul(h, w2), targets, w);
  });
}

TEST_F(GradCheckTest, AttentionGateComposite) {
  // The SAO-style gate: softmax over two learned scores feeding a
  // column-broadcast mix — the most intricate pattern HAG relies on.
  Tensor h = Constant(Matrix::Randn(4, 3, &rng_));
  Tensor hn = Constant(Matrix::Randn(4, 3, &rng_));
  Tensor ws = RandParam(3, 3, "ws");
  Tensor wn = RandParam(3, 3, "wn");
  Tensor p = RandParam(6, 1, "p");
  Matrix targets(4, 1);
  targets(0, 0) = targets(2, 0) = 1.0f;
  Matrix sw(4, 1, 1.0f);
  Tensor head = RandParam(3, 1, "head");
  ExpectGradsOk({ws, wn, p, head}, [&] {
    Tensor hs = MatMul(h, ws);
    Tensor hnn = MatMul(hn, wn);
    Tensor a_self = MatMul(Tanh(ConcatCols(hs, hs)), p);
    Tensor a_neigh = MatMul(Tanh(ConcatCols(hnn, hs)), p);
    Tensor alphas = SoftmaxRows(ConcatCols(a_self, a_neigh));
    Tensor mixed = Add(MulColBroadcast(h, SliceCols(alphas, 0, 1)),
                       MulColBroadcast(hn, SliceCols(alphas, 1, 1)));
    return BceWithLogits(MatMul(Relu(mixed), head), targets, sw);
  });
}

}  // namespace
}  // namespace turbo::ag
