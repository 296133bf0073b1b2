// Differentiable operators on Tensors.
//
// Shapes follow the dense-matrix conventions of la::Matrix. All backward
// implementations are checked against numerical gradients in
// tests/autograd/gradcheck_test.cc.
//
// Each op is a forward kernel plus a backward closure. The dense and
// sparse products (MatMul, SpMM) run on the runtime-dispatched kernels
// of la/kernel_dispatch.h, the same ones the tape-free inference
// forwards use, so training follows the active kernel ISA; forcing the
// scalar tier makes it bit-exact across machines.
#pragma once

#include <vector>

#include "autograd/tensor.h"
#include "la/sparse.h"
#include "util/rng.h"

namespace turbo::ag {

// ---- arithmetic ----
Tensor Add(const Tensor& a, const Tensor& b);        // same shape
Tensor Sub(const Tensor& a, const Tensor& b);        // same shape
Tensor Mul(const Tensor& a, const Tensor& b);        // elementwise
Tensor ScalarMul(const Tensor& a, float s);
/// x + bias where bias is [1, n], broadcast over rows.
Tensor AddRowBroadcast(const Tensor& x, const Tensor& bias);
/// x * gate where gate is [m, 1], broadcast over columns (per-row gate).
Tensor MulColBroadcast(const Tensor& x, const Tensor& gate);

// ---- linear algebra ----
Tensor MatMul(const Tensor& a, const Tensor& b);
/// y = A * x with a constant sparse adjacency A (graph aggregation).
Tensor SpMM(const la::SparseMatrix& a, const Tensor& x);

// ---- shape ----
Tensor ConcatCols(const Tensor& a, const Tensor& b);
/// Concatenate many tensors with equal row counts along columns.
Tensor ConcatColsN(const std::vector<Tensor>& parts);
Tensor SliceCols(const Tensor& a, size_t start, size_t len);

// ---- nonlinearity ----
Tensor Relu(const Tensor& a);
Tensor LeakyRelu(const Tensor& a, float slope = 0.2f);
Tensor Tanh(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor SoftmaxRows(const Tensor& a);
/// Inverted dropout; identity when `training` is false.
Tensor Dropout(const Tensor& a, float p, bool training, Rng* rng);

// ---- reductions ----
Tensor RowSums(const Tensor& a);  // [m,n] -> [m,1]
Tensor Sum(const Tensor& a);      // [m,n] -> [1,1]
Tensor Mean(const Tensor& a);     // [m,n] -> [1,1]

// ---- losses ----
/// Numerically stable binary cross-entropy on logits.
/// logits: [n,1]; targets: [n,1] in {0,1}; sample_weight: [n,1] >= 0
/// (use 0 to mask a row out, class weights to rebalance). Returns [1,1]:
///   sum_i w_i * BCE(z_i, y_i) / sum_i w_i.
Tensor BceWithLogits(const Tensor& logits, const la::Matrix& targets,
                     const la::Matrix& sample_weight);

/// Mean squared error against a constant target, for tests/regression.
Tensor MseLoss(const Tensor& pred, const la::Matrix& target);

/// L2 penalty 0.5 * lambda * sum ||p||^2 over the given parameters.
Tensor L2Penalty(const std::vector<Tensor>& params, float lambda);

}  // namespace turbo::ag
