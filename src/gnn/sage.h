// GraphSAGE baseline (Hamilton et al.), skip-connection form of Eq. 4:
//   h_v <- ReLU(W_s h_v + W_n mean_{u in N(v)} h_u)
// over the homogeneous union graph.
#pragma once

#include "gnn/model.h"

namespace turbo::gnn {

class GraphSage : public GnnModel {
 public:
  explicit GraphSage(GnnConfig cfg = {}) : cfg_(cfg) {}

  void Init(int in_dim) override;
  ag::Tensor Embed(const GraphBatch& batch, bool training,
                   Rng* rng) const override;
  std::vector<ag::Tensor> Params() const override;
  std::string name() const override { return "G-SAGE"; }

 private:
  GnnConfig cfg_;
  std::vector<ag::Tensor> self_w_, neigh_w_;
};

}  // namespace turbo::gnn
