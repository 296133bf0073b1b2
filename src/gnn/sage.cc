#include "gnn/sage.h"

namespace turbo::gnn {

using ag::Tensor;

void GraphSage::Init(int in_dim) {
  Rng rng(cfg_.seed);
  self_w_.clear();
  neigh_w_.clear();
  int d = in_dim;
  for (int h : cfg_.hidden) {
    self_w_.push_back(ag::Param(la::Matrix::Glorot(d, h, &rng), "sage_ws"));
    neigh_w_.push_back(ag::Param(la::Matrix::Glorot(d, h, &rng), "sage_wn"));
    d = h;
  }
  head_.Init(d, cfg_.mlp_hidden, &rng);
}

Tensor GraphSage::Embed(const GraphBatch& batch, bool training,
                        Rng* rng) const {
  TURBO_CHECK(!self_w_.empty());
  Tensor h = InputTensor(batch);
  for (size_t l = 0; l < self_w_.size(); ++l) {
    // ReLU(H Ws + (Ā H) Wn), evaluated as ReLU(Ā (H Wn) + H Ws): the
    // SpMM runs on the transformed (narrow) features and fuses with the
    // self-term addend and the activation.
    h = ag::SpMMBiasAct(batch.union_mean, ag::MatMul(h, neigh_w_[l]),
                        ag::MatMul(h, self_w_[l]), la::Act::kRelu);
    h = ag::Dropout(h, cfg_.dropout, training, rng);
  }
  return h;
}

std::vector<Tensor> GraphSage::Params() const {
  std::vector<Tensor> p = self_w_;
  p.insert(p.end(), neigh_w_.begin(), neigh_w_.end());
  for (const auto& t : head_.Params()) p.push_back(t);
  return p;
}

}  // namespace turbo::gnn
