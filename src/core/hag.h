// HAG — Heterogeneous Adaptive Graph neural network (Section IV), the
// paper's primary contribution.
//
// Two operators:
//
//  * SAO (Self-aware Aggregation Operator, Eq. 5–9): a per-node attention
//    gate between the node's own transformed feature and its aggregated
//    neighborhood, run independently on every homogeneous per-type
//    subgraph. The gate keeps clique members separable — plain GCN maps
//    every member of a clique to the same point after one round
//    (Theorem 1, verified empirically in tests/core/oversmoothing_test).
//
//  * CFO (Cross-type Fusion Operator, Eq. 10–15): fuses the per-type
//    final embeddings with node-wise attention (micro level) and per-type
//    transformation matrices M_r (macro level).
//
// Ablation switches `use_sao` / `use_cfo` reproduce Table V:
//   use_sao=false  -> SAO(-): the gate is dropped (GraphSAGE-style
//                     aggregation per type), CFO kept.
//   use_cfo=false  -> CFO(-): one SAO chain on the homogeneous union
//                     graph, no type distinction.
//   both false     -> Both(-).
#pragma once

#include <array>

#include "gnn/model.h"

namespace turbo::core {

struct HagConfig : gnn::GnnConfig {
  bool use_sao = true;
  bool use_cfo = true;
  /// Eq. 10 runs SAO independently per homogeneous subgraph; the paper
  /// leaves open whether the SAO transforms are type-specific. Sharing
  /// them (one SAO parameter set applied to every type's adjacency, with
  /// heterogeneity modeled by CFO's per-type attention and M_r) is far
  /// more sample-efficient at sub-paper dataset scales and is the
  /// default; set false for fully type-specific chains.
  bool share_type_weights = true;
};

class Hag : public gnn::GnnModel {
 public:
  explicit Hag(HagConfig cfg = {}) : cfg_(cfg) {}

  void Init(int in_dim) override;
  ag::Tensor Embed(const gnn::GraphBatch& batch, bool training,
                   Rng* rng) const override;
  std::vector<ag::Tensor> Params() const override;
  std::string name() const override;

  const HagConfig& config() const { return cfg_; }

 private:
  /// One SAO layer's parameters (Eq. 5–9) for one edge type.
  struct SaoLayer {
    ag::Tensor w_self;   // W_ls  [d_in, d_out]
    ag::Tensor w_neigh;  // W_ln  [d_in, d_out]
    ag::Tensor w_s;      // W_s   [d_in, t]
    ag::Tensor w_n;      // W_n   [d_in, t]
    ag::Tensor p;        // p     [2t, 1]
  };
  /// CFO parameters for one edge type (Eq. 12–15).
  struct CfoType {
    ag::Tensor w_attn;  // W_r  [d_k, d_a]
    ag::Tensor v_attn;  // v_r  [d_a, 1]
    ag::Tensor m;       // M_r  [d_k, d_m]
  };

  SaoLayer MakeSaoLayer(int d_in, int d_out, Rng* rng) const;
  ag::Tensor ApplySao(const SaoLayer& layer, const ag::Tensor& h,
                      const la::SparseMatrix& mean_adj) const;

  HagConfig cfg_;
  /// chains_[type][layer]; with use_cfo=false there is a single chain.
  std::vector<std::vector<SaoLayer>> chains_;
  std::vector<CfoType> cfo_;
};

}  // namespace turbo::core
