#include "autograd/tensor.h"

#include <cmath>
#include <thread>

#include <gtest/gtest.h>

#include "autograd/ops.h"

namespace turbo::ag {
namespace {

using la::Matrix;

TEST(TensorTest, ConstantHasNoGrad) {
  Tensor c = Constant(Matrix(2, 2, 1.0f));
  EXPECT_FALSE(c->requires_grad);
  EXPECT_FALSE(c->has_grad());
}

TEST(TensorTest, ParamRequiresGrad) {
  Tensor p = Param(Matrix(2, 2, 1.0f));
  EXPECT_TRUE(p->requires_grad);
}

TEST(TensorTest, RequiresGradPropagates) {
  Tensor c = Constant(Matrix(2, 2, 1.0f));
  Tensor p = Param(Matrix(2, 2, 1.0f));
  EXPECT_FALSE(Add(c, c)->requires_grad);
  EXPECT_TRUE(Add(c, p)->requires_grad);
}

TEST(BackwardTest, SumGradIsOnes) {
  Tensor p = Param(Matrix(2, 3, 2.0f));
  Backward(Sum(p));
  ASSERT_TRUE(p->has_grad());
  for (size_t i = 0; i < p->grad.size(); ++i) {
    EXPECT_FLOAT_EQ(p->grad.data()[i], 1.0f);
  }
}

TEST(BackwardTest, MeanGradIsUniform) {
  Tensor p = Param(Matrix(2, 2, 2.0f));
  Backward(Mean(p));
  EXPECT_FLOAT_EQ(p->grad(0, 0), 0.25f);
}

TEST(BackwardTest, ChainRuleThroughScalarMul) {
  Tensor p = Param(Matrix(1, 1, 3.0f));
  Tensor loss = ScalarMul(Sum(p), 5.0f);
  Backward(loss);
  EXPECT_FLOAT_EQ(p->grad(0, 0), 5.0f);
}

TEST(BackwardTest, DiamondGraphAccumulates) {
  // loss = sum(p + p): grad should be 2 everywhere.
  Tensor p = Param(Matrix(2, 2, 1.0f));
  Backward(Sum(Add(p, p)));
  EXPECT_FLOAT_EQ(p->grad(1, 1), 2.0f);
}

TEST(BackwardTest, SharedSubexpressionVisitedOnce) {
  // y = p*p used twice; grad = d/dp [2 * sum(p^2)] = 4p.
  Tensor p = Param(Matrix(1, 1, 3.0f));
  Tensor y = Mul(p, p);
  Backward(Sum(Add(y, y)));
  EXPECT_FLOAT_EQ(p->grad(0, 0), 12.0f);
}

TEST(BackwardTest, GradsAccumulateAcrossCalls) {
  Tensor p = Param(Matrix(1, 1, 1.0f));
  Backward(Sum(p));
  Backward(Sum(p));
  EXPECT_FLOAT_EQ(p->grad(0, 0), 2.0f);
  p->ClearGrad();
  EXPECT_FALSE(p->has_grad());
}

TEST(BackwardTest, MatMulGradKnownValues) {
  // loss = sum(A*B); dA = ones * B^T, dB = A^T * ones.
  Tensor a = Param(Matrix::FromRows({{1, 2}, {3, 4}}), "A");
  Tensor b = Param(Matrix::FromRows({{5, 6}, {7, 8}}), "B");
  Backward(Sum(MatMul(a, b)));
  EXPECT_TRUE(la::AllClose(a->grad, Matrix::FromRows({{11, 15}, {11, 15}})));
  EXPECT_TRUE(la::AllClose(b->grad, Matrix::FromRows({{4, 4}, {6, 6}})));
}

TEST(BackwardTest, ReluMasksNegativeGrad) {
  Tensor p = Param(Matrix::FromRows({{-1, 2}}));
  Backward(Sum(Relu(p)));
  EXPECT_FLOAT_EQ(p->grad(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(p->grad(0, 1), 1.0f);
}

TEST(BackwardTest, SpMMForwardAndBackward) {
  auto adj = la::SparseMatrix::FromTriplets(
      2, 3, {{0, 0, 1.0f}, {0, 2, 2.0f}, {1, 1, 3.0f}});
  Tensor x = Param(Matrix::FromRows({{1, 1}, {2, 2}, {3, 3}}));
  Tensor y = SpMM(adj, x);
  EXPECT_FLOAT_EQ(y->value(0, 0), 7.0f);   // 1*1 + 2*3
  EXPECT_FLOAT_EQ(y->value(1, 0), 6.0f);   // 3*2
  Backward(Sum(y));
  // grad_x = A^T * ones(2,2)
  EXPECT_FLOAT_EQ(x->grad(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(x->grad(1, 0), 3.0f);
  EXPECT_FLOAT_EQ(x->grad(2, 0), 2.0f);
}

TEST(BackwardTest, ConcatSplitsGradient) {
  Tensor a = Param(Matrix(2, 1, 1.0f), "a");
  Tensor b = Param(Matrix(2, 2, 1.0f), "b");
  Tensor c = ConcatCols(a, b);
  EXPECT_EQ(c->value.cols(), 3u);
  // Scale columns differently to make the split observable.
  Tensor gate = Constant(Matrix::FromRows({{1, 2, 3}}));
  // loss = sum(c + broadcast(gate)) has uniform grad; instead multiply.
  Tensor weighted = Mul(c, Constant(Matrix::FromRows({{1, 2, 3}, {1, 2, 3}})));
  Backward(Sum(weighted));
  EXPECT_FLOAT_EQ(a->grad(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(b->grad(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(b->grad(1, 1), 3.0f);
}

TEST(BackwardTest, SliceColsGradGoesToSlice) {
  Tensor a = Param(Matrix::FromRows({{1, 2, 3}}));
  Backward(Sum(SliceCols(a, 1, 2)));
  EXPECT_FLOAT_EQ(a->grad(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(a->grad(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(a->grad(0, 2), 1.0f);
}

TEST(BackwardDeathTest, NonScalarRootAborts) {
  Tensor p = Param(Matrix(2, 2, 1.0f));
  EXPECT_DEATH(Backward(Add(p, p)), "scalar");
}

TEST(BceTest, MatchesHandComputedLoss) {
  // z=0 -> loss = log(2) regardless of label.
  Tensor logits = Param(Matrix(2, 1, 0.0f));
  Matrix targets = Matrix::FromRows({{1}, {0}});
  Matrix w(2, 1, 1.0f);
  Tensor loss = BceWithLogits(logits, targets, w);
  EXPECT_NEAR(loss->value(0, 0), std::log(2.0f), 1e-5f);
  Backward(loss);
  // grad = (sigmoid(0) - y) / 2 = (0.5 - y)/2
  EXPECT_NEAR(logits->grad(0, 0), -0.25f, 1e-5f);
  EXPECT_NEAR(logits->grad(1, 0), 0.25f, 1e-5f);
}

TEST(BceTest, MaskedSamplesGetNoGradient) {
  Tensor logits = Param(Matrix(3, 1, 1.0f));
  Matrix targets(3, 1, 1.0f);
  Matrix w = Matrix::FromRows({{1}, {0}, {1}});
  Backward(BceWithLogits(logits, targets, w));
  EXPECT_FLOAT_EQ(logits->grad(1, 0), 0.0f);
  EXPECT_NE(logits->grad(0, 0), 0.0f);
}

TEST(BceTest, StableForExtremeLogits) {
  Tensor logits = Param(Matrix::FromRows({{100.0f}, {-100.0f}}));
  Matrix targets = Matrix::FromRows({{1}, {0}});
  Matrix w(2, 1, 1.0f);
  Tensor loss = BceWithLogits(logits, targets, w);
  EXPECT_NEAR(loss->value(0, 0), 0.0f, 1e-5f);
  EXPECT_FALSE(std::isnan(loss->value(0, 0)));
}

TEST(DropoutTest, EvalModeIsIdentity) {
  Rng rng(1);
  Tensor a = Param(Matrix(4, 4, 1.0f));
  Tensor d = Dropout(a, 0.5f, /*training=*/false, &rng);
  EXPECT_EQ(d.get(), a.get());
}

TEST(DropoutTest, TrainingModePreservesExpectation) {
  Rng rng(2);
  Tensor a = Constant(Matrix(100, 100, 1.0f));
  Tensor d = Dropout(a, 0.3f, /*training=*/true, &rng);
  EXPECT_NEAR(d->value.Sum() / 10000.0, 1.0, 0.05);
}

TEST(GraphSizeTest, CountsDistinctNodes) {
  Tensor p = Param(Matrix(1, 1, 1.0f));
  Tensor y = Mul(p, p);
  Tensor loss = Sum(Add(y, y));
  // nodes: p, y, add, sum
  EXPECT_EQ(GraphSize(loss), 4u);
}

TEST(NoGradScopeTest, ResultKeepsNoParentsOrBackward) {
  auto adj = la::SparseMatrix::FromTriplets(
      2, 2, {{0, 1, 1.0f}, {1, 0, 2.0f}, {1, 1, -1.0f}});
  Tensor x = Param(Matrix::FromRows({{1, -2}, {3, 4}}), "x");
  Tensor w = Param(Matrix::FromRows({{0.5f, 1}, {-1, 2}}), "w");
  Tensor bias = Param(Matrix::FromRows({{0.1f, -0.2f}}), "bias");
  auto forward = [&] {
    Tensor h = MatMulBiasAct(x, w, bias, la::Act::kRelu);
    return Sum(SpMMBiasAct(adj, SpMM(adj, h), h, la::Act::kIdentity));
  };
  Tensor recorded = forward();
  EXPECT_TRUE(recorded->requires_grad);
  EXPECT_GT(GraphSize(recorded), 4u);
  NoGradScope no_grad;
  Tensor y = forward();
  EXPECT_FALSE(y->requires_grad);
  EXPECT_TRUE(y->parents.empty());
  EXPECT_FALSE(y->backward_fn);
  EXPECT_EQ(GraphSize(y), 1u);
  EXPECT_EQ(y->value(0, 0), recorded->value(0, 0));
}

TEST(NoGradScopeTest, NestedScopesRestoreOuterState) {
  EXPECT_TRUE(GradEnabled());
  {
    NoGradScope outer;
    EXPECT_FALSE(GradEnabled());
    {
      NoGradScope inner;
      EXPECT_FALSE(GradEnabled());
    }
    EXPECT_FALSE(GradEnabled());
  }
  EXPECT_TRUE(GradEnabled());
  Tensor p = Param(Matrix(1, 1, 2.0f));
  EXPECT_TRUE(Mul(p, p)->requires_grad);
}

TEST(NoGradScopeTest, ScopeIsThreadLocal) {
  Tensor p = Param(Matrix(1, 1, 2.0f));
  NoGradScope no_grad;
  bool other_enabled = false;
  bool other_records = false;
  std::thread t([&] {
    other_enabled = GradEnabled();
    Tensor y = Mul(p, p);
    other_records = y->requires_grad && y->parents.size() == 2;
  });
  t.join();
  EXPECT_TRUE(other_enabled);
  EXPECT_TRUE(other_records);
  EXPECT_FALSE(GradEnabled());
  EXPECT_FALSE(Mul(p, p)->requires_grad);
}

TEST(NoGradScopeTest, ParamGradsUntouchedByNoGradForward) {
  Tensor p = Param(Matrix::FromRows({{1, -2}, {3, 0.5f}}), "p");
  Backward(Sum(Tanh(MatMul(p, p))));
  const Matrix grad = p->grad;
  {
    NoGradScope no_grad;
    Tensor y = Sum(Tanh(MatMul(p, p)));
    EXPECT_FALSE(y->requires_grad);
  }
  ASSERT_TRUE(p->has_grad());
  EXPECT_TRUE(la::AllClose(p->grad, grad, 0.0f, 0.0f));
  // Recording resumes after the scope: a second backward accumulates.
  Backward(Sum(Tanh(MatMul(p, p))));
  Matrix twice = grad;
  twice.Add(grad);
  EXPECT_TRUE(la::AllClose(p->grad, twice));
}

TEST(L2PenaltyTest, ValueAndGrad) {
  Tensor p = Param(Matrix(1, 2, 2.0f));
  Tensor pen = L2Penalty({p}, 0.5f);
  EXPECT_NEAR(pen->value(0, 0), 0.5f * 0.5f * 8.0f, 1e-5f);
  Backward(pen);
  EXPECT_FLOAT_EQ(p->grad(0, 0), 1.0f);  // lambda * w
}

}  // namespace
}  // namespace turbo::ag
