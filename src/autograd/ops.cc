#include "autograd/ops.h"

#include <cmath>

#include "la/kernel_dispatch.h"

namespace turbo::ag {

using la::Matrix;

Tensor Add(const Tensor& a, const Tensor& b) {
  TURBO_CHECK(a->value.same_shape(b->value));
  Matrix v = a->value;
  v.Add(b->value);
  return MakeOp("add", std::move(v), {a, b}, [](Node* n) {
    if (n->parents[0]->requires_grad) n->parents[0]->AccumGrad(n->grad);
    if (n->parents[1]->requires_grad) n->parents[1]->AccumGrad(n->grad);
  });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  TURBO_CHECK(a->value.same_shape(b->value));
  Matrix v = a->value;
  v.Add(b->value, -1.0f);
  return MakeOp("sub", std::move(v), {a, b}, [](Node* n) {
    if (n->parents[0]->requires_grad) n->parents[0]->AccumGrad(n->grad);
    if (n->parents[1]->requires_grad) {
      Matrix g = n->grad;
      g.Scale(-1.0f);
      n->parents[1]->AccumGrad(g);
    }
  });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  Matrix v = la::ZipT(a->value, b->value,
                      [](float x, float y) { return x * y; });
  return MakeOp("mul", std::move(v), {a, b}, [](Node* n) {
    if (n->parents[0]->requires_grad) {
      n->parents[0]->AccumGrad(
          la::ZipT(n->grad, n->parents[1]->value,
                   [](float g, float y) { return g * y; }));
    }
    if (n->parents[1]->requires_grad) {
      n->parents[1]->AccumGrad(
          la::ZipT(n->grad, n->parents[0]->value,
                   [](float g, float x) { return g * x; }));
    }
  });
}

Tensor ScalarMul(const Tensor& a, float s) {
  Matrix v = a->value;
  v.Scale(s);
  return MakeOp("smul", std::move(v), {a}, [s](Node* n) {
    Matrix g = n->grad;
    g.Scale(s);
    n->parents[0]->AccumGrad(g);
  });
}

Tensor AddRowBroadcast(const Tensor& x, const Tensor& bias) {
  Matrix v = la::AddRowBroadcast(x->value, bias->value);
  return MakeOp("add_rowbc", std::move(v), {x, bias}, [](Node* n) {
    if (n->parents[0]->requires_grad) n->parents[0]->AccumGrad(n->grad);
    if (n->parents[1]->requires_grad) {
      Matrix gb(1, n->grad.cols());
      for (size_t r = 0; r < n->grad.rows(); ++r) {
        for (size_t c = 0; c < n->grad.cols(); ++c) {
          gb(0, c) += n->grad(r, c);
        }
      }
      n->parents[1]->AccumGrad(gb);
    }
  });
}

Tensor MulColBroadcast(const Tensor& x, const Tensor& gate) {
  Matrix v = la::MulColBroadcast(x->value, gate->value);
  return MakeOp("mul_colbc", std::move(v), {x, gate}, [](Node* n) {
    const Matrix& gx = n->parents[0]->value;
    const Matrix& gg = n->parents[1]->value;
    if (n->parents[0]->requires_grad) {
      n->parents[0]->AccumGrad(la::MulColBroadcast(n->grad, gg));
    }
    if (n->parents[1]->requires_grad) {
      Matrix ggate(gx.rows(), 1);
      for (size_t r = 0; r < gx.rows(); ++r) {
        float s = 0.0f;
        for (size_t c = 0; c < gx.cols(); ++c) s += n->grad(r, c) * gx(r, c);
        ggate(r, 0) = s;
      }
      n->parents[1]->AccumGrad(ggate);
    }
  });
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  Matrix v = la::dispatch::MatMul(a->value, b->value);
  return MakeOp("matmul", std::move(v), {a, b}, [](Node* n) {
    // dA = dC * B^T, dB = A^T * dC.
    if (n->parents[0]->requires_grad) {
      n->parents[0]->AccumGrad(
          la::dispatch::MatMulTransB(n->grad, n->parents[1]->value));
    }
    if (n->parents[1]->requires_grad) {
      n->parents[1]->AccumGrad(
          la::dispatch::MatMul(la::Transpose(n->parents[0]->value), n->grad));
    }
  });
}

Tensor SpMM(const la::SparseMatrix& a, const Tensor& x) {
  Matrix v = la::dispatch::Spmm(a, x->value);
  // The sparse matrix is captured by value; it is cheap to copy only if the
  // caller keeps it alive — copy the CSR arrays to be safe (shared graphs
  // reuse one SparseMatrix across many ops, so capture by pointer would be
  // a lifetime hazard in benches).
  la::SparseMatrix acopy = a;
  return MakeOp("spmm", std::move(v), {x}, [acopy](Node* n) {
    n->parents[0]->AccumGrad(acopy.MultiplyTransposed(n->grad));
  });
}

Tensor ConcatCols(const Tensor& a, const Tensor& b) {
  return ConcatColsN({a, b});
}

Tensor ConcatColsN(const std::vector<Tensor>& parts) {
  TURBO_CHECK(!parts.empty());
  Matrix v = parts[0]->value;
  for (size_t i = 1; i < parts.size(); ++i) {
    v = la::ConcatCols(v, parts[i]->value);
  }
  std::vector<size_t> widths;
  widths.reserve(parts.size());
  for (const auto& p : parts) widths.push_back(p->value.cols());
  return MakeOp("concat", std::move(v), parts, [widths](Node* n) {
    size_t off = 0;
    for (size_t i = 0; i < n->parents.size(); ++i) {
      if (n->parents[i]->requires_grad) {
        Matrix g(n->grad.rows(), widths[i]);
        for (size_t r = 0; r < g.rows(); ++r) {
          for (size_t c = 0; c < widths[i]; ++c) {
            g(r, c) = n->grad(r, off + c);
          }
        }
        n->parents[i]->AccumGrad(g);
      }
      off += widths[i];
    }
  });
}

Tensor SliceCols(const Tensor& a, size_t start, size_t len) {
  TURBO_CHECK_LE(start + len, a->value.cols());
  Matrix v(a->value.rows(), len);
  for (size_t r = 0; r < v.rows(); ++r) {
    for (size_t c = 0; c < len; ++c) v(r, c) = a->value(r, start + c);
  }
  return MakeOp("slice", std::move(v), {a}, [start, len](Node* n) {
    Matrix g(n->parents[0]->value.rows(), n->parents[0]->value.cols());
    for (size_t r = 0; r < g.rows(); ++r) {
      for (size_t c = 0; c < len; ++c) g(r, start + c) = n->grad(r, c);
    }
    n->parents[0]->AccumGrad(g);
  });
}

// The pointwise nonlinearities run their forward maps and backward zips
// through the MapT/ZipT templates (stateless lambdas instantiated per
// op), so the per-element work inlines instead of dispatching through a
// std::function on every entry — these are the hottest elementwise ops
// on both the training and the tape-free serving path (the latter uses
// the same functors via la::kernels::*, keeping the two forwards
// numerically identical).
Tensor Relu(const Tensor& a) {
  return MakeOp("relu", la::MapT(a->value, la::kernels::Relu), {a},
                [](Node* n) {
                  n->parents[0]->AccumGrad(
                      la::ZipT(n->grad, n->value, [](float g, float y) {
                        return y > 0.0f ? g : 0.0f;
                      }));
                });
}

Tensor LeakyRelu(const Tensor& a, float slope) {
  Matrix v = la::MapT(a->value,
                      [slope](float x) { return x > 0.0f ? x : slope * x; });
  return MakeOp("lrelu", std::move(v), {a}, [slope](Node* n) {
    n->parents[0]->AccumGrad(
        la::ZipT(n->grad, n->parents[0]->value, [slope](float g, float x) {
          return g * (x > 0.0f ? 1.0f : slope);
        }));
  });
}

Tensor Tanh(const Tensor& a) {
  return MakeOp("tanh", la::MapT(a->value, la::kernels::Tanh), {a},
                [](Node* n) {
                  n->parents[0]->AccumGrad(
                      la::ZipT(n->grad, n->value, [](float g, float y) {
                        return g * (1.0f - y * y);
                      }));
                });
}

Tensor Sigmoid(const Tensor& a) {
  return MakeOp("sigmoid", la::MapT(a->value, la::kernels::Sigmoid), {a},
                [](Node* n) {
                  n->parents[0]->AccumGrad(
                      la::ZipT(n->grad, n->value, [](float g, float y) {
                        return g * y * (1.0f - y);
                      }));
                });
}

Tensor SoftmaxRows(const Tensor& a) {
  Matrix v = la::SoftmaxRows(a->value);
  return MakeOp("softmax_rows", std::move(v), {a}, [](Node* n) {
    // dx = y * (g - rowdot(g, y))
    const Matrix& y = n->value;
    Matrix dx(y.rows(), y.cols());
    for (size_t r = 0; r < y.rows(); ++r) {
      float dot = 0.0f;
      for (size_t c = 0; c < y.cols(); ++c) dot += n->grad(r, c) * y(r, c);
      for (size_t c = 0; c < y.cols(); ++c) {
        dx(r, c) = y(r, c) * (n->grad(r, c) - dot);
      }
    }
    n->parents[0]->AccumGrad(dx);
  });
}

Tensor Dropout(const Tensor& a, float p, bool training, Rng* rng) {
  TURBO_CHECK_GE(p, 0.0f);
  TURBO_CHECK_LT(p, 1.0f);
  if (!training || p == 0.0f) return a;
  TURBO_CHECK(rng != nullptr);
  Matrix mask(a->value.rows(), a->value.cols());
  const float scale = 1.0f / (1.0f - p);
  for (size_t i = 0; i < mask.size(); ++i) {
    mask.data()[i] = rng->NextBool(p) ? 0.0f : scale;
  }
  Matrix v = la::ZipT(a->value, mask, [](float x, float m) { return x * m; });
  return MakeOp("dropout", std::move(v), {a}, [mask](Node* n) {
    n->parents[0]->AccumGrad(
        la::ZipT(n->grad, mask, [](float g, float m) { return g * m; }));
  });
}

Tensor RowSums(const Tensor& a) {
  Matrix v = la::RowSums(a->value);
  return MakeOp("rowsums", std::move(v), {a}, [](Node* n) {
    Matrix g(n->parents[0]->value.rows(), n->parents[0]->value.cols());
    for (size_t r = 0; r < g.rows(); ++r) {
      for (size_t c = 0; c < g.cols(); ++c) g(r, c) = n->grad(r, 0);
    }
    n->parents[0]->AccumGrad(g);
  });
}

Tensor Sum(const Tensor& a) {
  Matrix v(1, 1, static_cast<float>(a->value.Sum()));
  return MakeOp("sum", std::move(v), {a}, [](Node* n) {
    Matrix g(n->parents[0]->value.rows(), n->parents[0]->value.cols(),
             n->grad(0, 0));
    n->parents[0]->AccumGrad(g);
  });
}

Tensor Mean(const Tensor& a) {
  const float inv = 1.0f / static_cast<float>(a->value.size());
  Matrix v(1, 1, static_cast<float>(a->value.Sum()) * inv);
  return MakeOp("mean", std::move(v), {a}, [inv](Node* n) {
    Matrix g(n->parents[0]->value.rows(), n->parents[0]->value.cols(),
             n->grad(0, 0) * inv);
    n->parents[0]->AccumGrad(g);
  });
}

Tensor BceWithLogits(const Tensor& logits, const la::Matrix& targets,
                     const la::Matrix& sample_weight) {
  TURBO_CHECK_EQ(logits->value.cols(), 1u);
  TURBO_CHECK(logits->value.same_shape(targets));
  TURBO_CHECK(logits->value.same_shape(sample_weight));
  double wsum = 0.0;
  for (size_t i = 0; i < sample_weight.size(); ++i) {
    TURBO_CHECK_GE(sample_weight.data()[i], 0.0f);
    wsum += sample_weight.data()[i];
  }
  TURBO_CHECK_GT(wsum, 0.0);
  const float inv_wsum = static_cast<float>(1.0 / wsum);

  double loss = 0.0;
  const size_t n = logits->value.rows();
  for (size_t i = 0; i < n; ++i) {
    float z = logits->value(i, 0);
    float y = targets(i, 0);
    float w = sample_weight(i, 0);
    // max(z,0) - z*y + log(1+exp(-|z|)): stable for any z sign.
    float l = std::max(z, 0.0f) - z * y + std::log1p(std::exp(-std::abs(z)));
    loss += static_cast<double>(w) * l;
  }
  Matrix v(1, 1, static_cast<float>(loss * inv_wsum));
  Matrix t = targets;
  Matrix w = sample_weight;
  return MakeOp("bce_logits", std::move(v), {logits},
                [t, w, inv_wsum](Node* node) {
                  Node* lp = node->parents[0].get();
                  Matrix g(lp->value.rows(), 1);
                  const float go = node->grad(0, 0);
                  for (size_t i = 0; i < g.rows(); ++i) {
                    float z = lp->value(i, 0);
                    float s = z >= 0.0f
                                  ? 1.0f / (1.0f + std::exp(-z))
                                  : std::exp(z) / (1.0f + std::exp(z));
                    g(i, 0) = go * w(i, 0) * (s - t(i, 0)) * inv_wsum;
                  }
                  lp->AccumGrad(g);
                });
}

Tensor MseLoss(const Tensor& pred, const la::Matrix& target) {
  TURBO_CHECK(pred->value.same_shape(target));
  const float inv = 1.0f / static_cast<float>(pred->value.size());
  double loss = 0.0;
  for (size_t i = 0; i < pred->value.size(); ++i) {
    double d = pred->value.data()[i] - target.data()[i];
    loss += d * d;
  }
  Matrix v(1, 1, static_cast<float>(loss * inv));
  Matrix t = target;
  return MakeOp("mse", std::move(v), {pred}, [t, inv](Node* node) {
    Node* p = node->parents[0].get();
    Matrix g(p->value.rows(), p->value.cols());
    const float go = node->grad(0, 0);
    for (size_t i = 0; i < g.size(); ++i) {
      g.data()[i] = go * 2.0f * inv * (p->value.data()[i] - t.data()[i]);
    }
    p->AccumGrad(g);
  });
}

Tensor L2Penalty(const std::vector<Tensor>& params, float lambda) {
  TURBO_CHECK(!params.empty());
  double s = 0.0;
  for (const auto& p : params) s += p->value.SquaredNorm();
  Matrix v(1, 1, static_cast<float>(0.5 * lambda * s));
  return MakeOp("l2", std::move(v), params, [lambda](Node* node) {
    const float go = node->grad(0, 0);
    for (auto& p : node->parents) {
      if (!p->requires_grad) continue;
      Matrix g = p->value;
      g.Scale(go * lambda);
      p->AccumGrad(g);
    }
  });
}

}  // namespace turbo::ag
