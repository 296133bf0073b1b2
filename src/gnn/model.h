// Common interface for the graph neural networks of Table III and HAG.
#pragma once

#include <string>
#include <vector>

#include "autograd/ops.h"
#include "gnn/graph_batch.h"
#include "util/rng.h"

namespace turbo::gnn {

struct GnnConfig {
  /// Hidden sizes of the two graph layers. The paper uses {128, 64}; the
  /// benches default to a single-core-friendly {64, 32}.
  std::vector<int> hidden = {64, 32};
  /// Classification head hidden units ("cascaded by a MLP with 32").
  int mlp_hidden = 32;
  /// Attention hidden size `t` for SAO/CFO/GAT (paper: 64).
  int attention_dim = 32;
  int gat_heads = 2;
  float dropout = 0.1f;
  uint64_t seed = 11;
};

/// Shared classification head: ReLU MLP with one hidden layer -> logit.
class MlpHead {
 public:
  void Init(int in_dim, int hidden, Rng* rng);
  /// Two fused GEMM+bias+act layers (ag::MatMulBiasAct).
  ag::Tensor Forward(const ag::Tensor& h) const;
  std::vector<ag::Tensor> Params() const;

 private:
  ag::Tensor w1_, b1_, w2_, b2_;
};

class GnnModel {
 public:
  virtual ~GnnModel() = default;

  /// Builds parameters for the given input feature dimension. Must be
  /// called once before Embed()/Logits().
  virtual void Init(int in_dim) = 0;

  /// Final node embeddings [n, d_k] — the representation the influence
  /// analysis (Definition 1) differentiates. `training` enables dropout.
  /// This is the only forward: training records it on the autograd
  /// tape, serving runs it under ag::NoGradScope (no parents, no
  /// backward closures, no O(nnz) adjacency copies) and gets the same
  /// bits (tests/core/inference_equivalence_test). The SpMM-based
  /// layers aggregate the transformed features, e.g. ReLU(Â (H W)), so
  /// the SpMM runs on the narrower operand and fuses with its epilogue.
  virtual ag::Tensor Embed(const GraphBatch& batch, bool training,
                           Rng* rng) const = 0;

  /// Per-node logits [n, 1]: classification head over Embed().
  ag::Tensor Logits(const GraphBatch& batch, bool training, Rng* rng) const {
    return head_.Forward(Embed(batch, training, rng));
  }

  virtual std::vector<ag::Tensor> Params() const = 0;
  virtual std::string name() const = 0;

  /// Replaces the batch-features input leaf with a caller-provided tensor
  /// on subsequent Embed() calls (pass nullptr to reset). Used by the
  /// influence analysis to differentiate embeddings w.r.t. node inputs.
  void SetInputOverride(ag::Tensor input) {
    input_override_ = std::move(input);
  }

 protected:
  /// Models obtain their input leaf through this hook.
  ag::Tensor InputTensor(const GraphBatch& batch) const {
    if (input_override_) {
      TURBO_CHECK(input_override_->value.same_shape(batch.features));
      return input_override_;
    }
    return ag::Constant(batch.features, "x");
  }

  MlpHead head_;

 private:
  ag::Tensor input_override_;
};

}  // namespace turbo::gnn
