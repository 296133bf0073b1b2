#include "autograd/tensor.h"

#include <unordered_set>

namespace turbo::ag {

void Node::AccumGrad(const la::Matrix& g) {
  TURBO_CHECK_EQ(g.rows(), value.rows());
  TURBO_CHECK_EQ(g.cols(), value.cols());
  if (grad.empty()) {
    grad = g;
  } else {
    grad.Add(g);
  }
}

const la::Matrix& Node::GradOrZero() {
  if (!grad.empty()) return grad;
  if (zero_cache_.rows() != value.rows() ||
      zero_cache_.cols() != value.cols()) {
    zero_cache_ = la::Matrix(value.rows(), value.cols(), 0.0f);
  }
  return zero_cache_;
}

Tensor Constant(la::Matrix value, std::string name) {
  return std::make_shared<Node>(std::move(name), std::move(value), false);
}

Tensor Param(la::Matrix value, std::string name) {
  return std::make_shared<Node>(std::move(name), std::move(value), true);
}

namespace {
thread_local bool grad_enabled = true;
}  // namespace

NoGradScope::NoGradScope() : prev_(grad_enabled) { grad_enabled = false; }
NoGradScope::~NoGradScope() { grad_enabled = prev_; }

bool GradEnabled() { return grad_enabled; }

Tensor MakeOp(std::string name, la::Matrix value,
              std::vector<Tensor> parents,
              std::function<void(Node*)> backward) {
  if (!grad_enabled) {
    return std::make_shared<Node>(std::move(name), std::move(value), false);
  }
  bool rg = false;
  for (const auto& p : parents) rg = rg || p->requires_grad;
  auto node = std::make_shared<Node>(std::move(name), std::move(value), rg);
  node->parents = std::move(parents);
  if (rg) node->backward_fn = std::move(backward);
  return node;
}

namespace {

void TopoSort(Node* n, std::unordered_set<Node*>* seen,
              std::vector<Node*>* order) {
  // Iterative DFS; graphs can be thousands of nodes deep in principle.
  struct Frame {
    Node* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  if (seen->insert(n).second) stack.push_back({n, 0});
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_parent < f.node->parents.size()) {
      Node* p = f.node->parents[f.next_parent++].get();
      if (p->requires_grad && seen->insert(p).second) {
        stack.push_back({p, 0});
      }
    } else {
      order->push_back(f.node);
      stack.pop_back();
    }
  }
}

}  // namespace

void Backward(const Tensor& root) {
  TURBO_CHECK_MSG(root->rows() == 1 && root->cols() == 1,
                  "Backward root must be scalar, got " << root->rows() << "x"
                                                       << root->cols());
  TURBO_CHECK(root->requires_grad);
  std::unordered_set<Node*> seen;
  std::vector<Node*> order;  // post-order: parents before children
  TopoSort(root.get(), &seen, &order);
  root->AccumGrad(la::Matrix(1, 1, 1.0f));
  // Children (later in forward) must propagate before their parents are
  // read, i.e. reverse post-order.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* n = *it;
    if (n->backward_fn && n->has_grad()) n->backward_fn(n);
  }
}

size_t GraphSize(const Tensor& root) {
  std::unordered_set<Node*> seen;
  std::vector<Node*> stack = {root.get()};
  seen.insert(root.get());
  while (!stack.empty()) {
    Node* n = stack.back();
    stack.pop_back();
    for (const auto& p : n->parents) {
      if (seen.insert(p.get()).second) stack.push_back(p.get());
    }
  }
  return seen.size();
}

}  // namespace turbo::ag
