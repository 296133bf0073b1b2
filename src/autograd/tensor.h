// Tape-based reverse-mode automatic differentiation.
//
// A Tensor is a shared handle to a Node holding a dense matrix value, an
// optional gradient, and a closure that pushes the node's gradient to its
// parents. The graph is rebuilt on every forward pass (define-by-run);
// Backward() topologically sorts reachable nodes and runs the closures in
// reverse order.
//
// Custom fused operators (sparse aggregation, edge softmax, losses) are
// created with MakeOp and a hand-written backward closure; all backward
// implementations are validated against numerical differentiation in
// tests/autograd/.
//
// Recording is on by default. Inside an ag::NoGradScope the same ops run
// the same kernels, but MakeOp keeps no parents and no closure, so a
// forward (e.g. serving) allocates nothing beyond its result values.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "la/matrix.h"

namespace turbo::ag {

class Node;
using Tensor = std::shared_ptr<Node>;

class Node {
 public:
  Node(std::string op, la::Matrix value, bool requires_grad)
      : op_name(std::move(op)),
        value(std::move(value)),
        requires_grad(requires_grad) {}

  std::string op_name;
  la::Matrix value;
  la::Matrix grad;  // empty until first accumulation
  bool requires_grad;
  std::vector<Tensor> parents;
  /// Pushes this->grad into parents' grads. Null for leaves.
  std::function<void(Node*)> backward_fn;

  size_t rows() const { return value.rows(); }
  size_t cols() const { return value.cols(); }

  bool has_grad() const { return !grad.empty(); }
  /// Adds g into grad, allocating a zero grad on first call.
  void AccumGrad(const la::Matrix& g);
  /// Grad as a zero matrix if never touched (convenience for backward fns).
  const la::Matrix& GradOrZero();
  void ClearGrad() { grad = la::Matrix(); }

 private:
  la::Matrix zero_cache_;
};

/// Leaf with no gradient (inputs, labels, fixed masks).
Tensor Constant(la::Matrix value, std::string name = "const");

/// Leaf with gradient (trainable parameter).
Tensor Param(la::Matrix value, std::string name = "param");

/// RAII switch that turns recording off on the calling thread until the
/// scope closes (cf. torch.no_grad). Scopes nest, each restoring the
/// state it found; other threads are unaffected.
class NoGradScope {
 public:
  NoGradScope();
  ~NoGradScope();
  NoGradScope(const NoGradScope&) = delete;
  NoGradScope& operator=(const NoGradScope&) = delete;

 private:
  bool prev_;
};

/// False while a NoGradScope is open on the calling thread. Ops whose
/// backward captures O(nnz) state check it to skip building the closure.
bool GradEnabled();

/// Interior node; requires_grad is inherited from any parent. With
/// recording off (NoGradScope) the result has requires_grad=false and
/// keeps neither `parents` nor `backward`.
Tensor MakeOp(std::string name, la::Matrix value,
              std::vector<Tensor> parents,
              std::function<void(Node*)> backward);

/// Runs reverse-mode accumulation from `root`, which must be 1x1 (a loss).
/// Parameter gradients accumulate across calls until cleared.
void Backward(const Tensor& root);

/// Distinct-node count reachable from root (diagnostics/tests).
size_t GraphSize(const Tensor& root);

}  // namespace turbo::ag
