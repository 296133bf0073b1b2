#include "gnn/trainer.h"

#include <cmath>
#include <cstdio>

#include "autograd/optimizer.h"
#include "ml/model.h"

namespace turbo::gnn {

using ag::Tensor;

void MlpHead::Init(int in_dim, int hidden, Rng* rng) {
  w1_ = ag::Param(la::Matrix::Glorot(in_dim, hidden, rng), "head_w1");
  b1_ = ag::Param(la::Matrix(1, hidden), "head_b1");
  w2_ = ag::Param(la::Matrix::Glorot(hidden, 1, rng), "head_w2");
  b2_ = ag::Param(la::Matrix(1, 1), "head_b2");
}

Tensor MlpHead::Forward(const Tensor& h) const {
  TURBO_CHECK(w1_ != nullptr);
  Tensor z = ag::MatMulBiasAct(h, w1_, b1_, la::Act::kRelu);
  return ag::MatMulBiasAct(z, w2_, b2_, la::Act::kIdentity);
}

std::vector<Tensor> MlpHead::Params() const {
  return {w1_, b1_, w2_, b2_};
}

double GnnTrainer::Fit(GnnModel* model, const GraphBatch& batch,
                       const std::vector<int>& labels) {
  TURBO_CHECK(model != nullptr);
  TURBO_CHECK_EQ(labels.size(), batch.num_targets);
  TURBO_CHECK_GT(batch.num_targets, 0u);

  const double wpos = cfg_.positive_weight > 0
                          ? cfg_.positive_weight
                          : ml::BalancedPositiveWeight(labels);
  const size_t n = batch.num_nodes();
  la::Matrix targets(n, 1);
  la::Matrix sample_w(n, 1);  // zero outside target rows (masked loss)
  for (size_t i = 0; i < labels.size(); ++i) {
    targets(i, 0) = static_cast<float>(labels[i]);
    sample_w(i, 0) = labels[i] != 0 ? static_cast<float>(wpos) : 1.0f;
  }

  ag::Adam opt(model->Params(), cfg_.lr, 0.9f, 0.999f, 1e-8f,
               cfg_.weight_decay);
  Rng rng(cfg_.seed);
  double last_loss = 0.0;
  for (int epoch = 0; epoch < cfg_.epochs; ++epoch) {
    opt.ZeroGrad();
    Tensor logits = model->Logits(batch, /*training=*/true, &rng);
    Tensor loss = ag::BceWithLogits(logits, targets, sample_w);
    last_loss = loss->value(0, 0);
    ag::Backward(loss);
    opt.ClipGradNorm(cfg_.clip_norm);
    opt.Step();
    if (cfg_.verbose && (epoch % 10 == 0 || epoch + 1 == cfg_.epochs)) {
      std::printf("  [%s] epoch %3d loss %.4f\n", model->name().c_str(),
                  epoch, last_loss);
    }
  }
  return last_loss;
}

std::vector<double> GnnTrainer::PredictAll(const GnnModel& model,
                                           const GraphBatch& batch) {
  ag::NoGradScope no_grad;
  Tensor logits = model.Logits(batch, /*training=*/false, nullptr);
  std::vector<double> out(batch.num_nodes());
  for (size_t i = 0; i < out.size(); ++i) {
    const float z = logits->value(i, 0);
    out[i] = z >= 0.0f ? 1.0 / (1.0 + std::exp(-z))
                       : std::exp(z) / (1.0 + std::exp(z));
  }
  return out;
}

std::vector<double> GnnTrainer::PredictTargets(const GnnModel& model,
                                               const GraphBatch& batch) {
  auto all = PredictAll(model, batch);
  all.resize(batch.num_targets);
  return all;
}

std::vector<double> GnnTrainer::PredictTargetsInference(
    const GnnModel& model, const GraphBatch& batch) {
  return PredictTargets(model, batch);
}

}  // namespace turbo::gnn
