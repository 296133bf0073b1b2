#include "gnn/gat.h"

#include "gnn/gat_ops.h"

namespace turbo::gnn {

using ag::Tensor;

void Gat::Init(int in_dim) {
  Rng rng(cfg_.seed);
  layers_.clear();
  int d = in_dim;
  for (int hdim : cfg_.hidden) {
    TURBO_CHECK_EQ(hdim % cfg_.gat_heads, 0);
    const int per_head = hdim / cfg_.gat_heads;
    std::vector<Head> heads;
    for (int h = 0; h < cfg_.gat_heads; ++h) {
      heads.push_back(Head{
          ag::Param(la::Matrix::Glorot(d, per_head, &rng), "gat_w"),
          ag::Param(la::Matrix::Glorot(per_head, 1, &rng), "gat_asrc"),
          ag::Param(la::Matrix::Glorot(per_head, 1, &rng), "gat_adst")});
    }
    layers_.push_back(std::move(heads));
    d = hdim;
  }
  head_.Init(d, cfg_.mlp_hidden, &rng);
}

Tensor Gat::Embed(const GraphBatch& batch, bool training, Rng* rng) const {
  TURBO_CHECK(!layers_.empty());
  Tensor h = InputTensor(batch);
  for (const auto& heads : layers_) {
    std::vector<Tensor> outs;
    outs.reserve(heads.size());
    for (const auto& head : heads) {
      Tensor hw = ag::MatMul(h, head.w);
      Tensor s = ag::MatMul(hw, head.a_src);
      Tensor d = ag::MatMul(hw, head.a_dst);
      outs.push_back(
          GatAggregate(batch.union_self_structure, hw, s, d, 0.2f));
    }
    h = ag::Relu(outs.size() == 1 ? outs[0] : ag::ConcatColsN(outs));
    h = ag::Dropout(h, cfg_.dropout, training, rng);
  }
  return h;
}

std::vector<Tensor> Gat::Params() const {
  std::vector<Tensor> p;
  for (const auto& heads : layers_) {
    for (const auto& head : heads) {
      p.push_back(head.w);
      p.push_back(head.a_src);
      p.push_back(head.a_dst);
    }
  }
  for (const auto& t : head_.Params()) p.push_back(t);
  return p;
}

}  // namespace turbo::gnn
