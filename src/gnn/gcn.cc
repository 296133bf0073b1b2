#include "gnn/gcn.h"

namespace turbo::gnn {

using ag::Tensor;

void Gcn::Init(int in_dim) {
  Rng rng(cfg_.seed);
  weights_.clear();
  int d = in_dim;
  for (int h : cfg_.hidden) {
    weights_.push_back(ag::Param(la::Matrix::Glorot(d, h, &rng), "gcn_w"));
    d = h;
  }
  head_.Init(d, cfg_.mlp_hidden, &rng);
}

Tensor Gcn::Embed(const GraphBatch& batch, bool training,
                  Rng* rng) const {
  TURBO_CHECK(!weights_.empty());
  Tensor h = InputTensor(batch);
  for (const auto& w : weights_) {
    // Eq. 1 (random-walk form): H <- ReLU(Â H W), Â = D^-1 (A + I),
    // evaluated as ReLU(Â (H W)) so the SpMM runs on the narrower
    // output width and fuses with the activation.
    h = ag::SpMMBiasAct(batch.union_rw_self, ag::MatMul(h, w),
                        /*addend=*/nullptr, la::Act::kRelu);
    h = ag::Dropout(h, cfg_.dropout, training, rng);
  }
  return h;
}

std::vector<Tensor> Gcn::Params() const {
  std::vector<Tensor> p = weights_;
  for (const auto& t : head_.Params()) p.push_back(t);
  return p;
}

}  // namespace turbo::gnn
