// Single-forward equivalence: every model has one forward (Embed/Logits),
// recorded on the autograd tape for training and run under
// ag::NoGradScope for serving. On trained weights the two runs must be
// bitwise equal at every level — embeddings, logits and the sigmoid
// predictions of GnnTrainer::PredictTargets — for HAG under every
// SAO x CFO ablation and with type-specific chains, and for all three
// baselines. The comparison is repeated under every kernel ISA the host
// supports (and CI additionally runs the suite under TURBO_KERNEL_ISA=
// scalar, avx2 and auto); cross-tier drift is bounded separately by
// tests/core/simd_equivalence_test.cc.
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/hag.h"
#include "gnn/gat.h"
#include "gnn/gcn.h"
#include "gnn/sage.h"
#include "gnn/trainer.h"
#include "la/cpu_features.h"
#include "tests/core/test_graphs.h"
#include "tests/la/ulp_test_util.h"

namespace turbo::core {
namespace {

using la::testing::ExpectBitEqual;

std::vector<int> AlternatingLabels(size_t n) {
  std::vector<int> labels(n);
  for (size_t i = 0; i < n; ++i) labels[i] = static_cast<int>(i % 2);
  return labels;
}

/// Trains briefly under the scalar tier (so the weights are not at init
/// and identical on every host), then checks the no-grad forward against
/// the recorded one under each supported ISA.
void ExpectNoGradMatchesRecorded(gnn::GnnModel* model,
                                 const gnn::GraphBatch& batch) {
  {
    la::ScopedKernelIsa scalar(la::KernelIsa::kScalar);
    model->Init(static_cast<int>(batch.features.cols()));
    gnn::TrainConfig tcfg;
    tcfg.epochs = 8;
    gnn::GnnTrainer trainer(tcfg);
    trainer.Fit(model, batch, AlternatingLabels(batch.num_targets));
  }
  for (la::KernelIsa isa : la::testing::SupportedIsas()) {
    la::ScopedKernelIsa forced(isa);
    SCOPED_TRACE(la::IsaName(isa));

    ag::Tensor emb = model->Embed(batch, /*training=*/false, nullptr);
    ag::Tensor logits = model->Logits(batch, /*training=*/false, nullptr);
    ASSERT_TRUE(emb->requires_grad);
    ASSERT_TRUE(logits->requires_grad);

    ag::Tensor emb_ng, logits_ng;
    {
      ag::NoGradScope no_grad;
      emb_ng = model->Embed(batch, /*training=*/false, nullptr);
      logits_ng = model->Logits(batch, /*training=*/false, nullptr);
    }
    EXPECT_FALSE(emb_ng->requires_grad);
    EXPECT_TRUE(emb_ng->parents.empty());
    EXPECT_EQ(ag::GraphSize(logits_ng), 1u);
    ExpectBitEqual(emb->value, emb_ng->value, "Embed");
    ExpectBitEqual(logits->value, logits_ng->value, "Logits");

    // PredictTargets opens its own scope; its probabilities must be the
    // sigmoid of the recorded logits, bit for bit.
    const auto probs = gnn::GnnTrainer::PredictTargets(*model, batch);
    ASSERT_EQ(probs.size(), batch.num_targets);
    for (size_t i = 0; i < probs.size(); ++i) {
      const float z = logits->value(i, 0);
      const double want = z >= 0.0f ? 1.0 / (1.0 + std::exp(-z))
                                    : std::exp(z) / (1.0 + std::exp(z));
      EXPECT_EQ(probs[i], want) << model->name() << " prediction " << i;
    }
  }
}

TEST(InferenceEquivalenceTest, HagAllAblationFlagCombos) {
  const gnn::GraphBatch batch = testing::MakePath(12, 31);
  for (bool use_sao : {true, false}) {
    for (bool use_cfo : {true, false}) {
      HagConfig cfg;
      cfg.hidden = {8, 4};
      cfg.attention_dim = 4;
      cfg.mlp_hidden = 4;
      cfg.use_sao = use_sao;
      cfg.use_cfo = use_cfo;
      Hag model(cfg);
      SCOPED_TRACE(model.name());
      ExpectNoGradMatchesRecorded(&model, batch);
    }
  }
}

TEST(InferenceEquivalenceTest, HagTypeSpecificChains) {
  const gnn::GraphBatch batch = testing::MakePath(12, 32);
  HagConfig cfg;
  cfg.hidden = {8, 4};
  cfg.attention_dim = 4;
  cfg.mlp_hidden = 4;
  cfg.share_type_weights = false;
  Hag model(cfg);
  ExpectNoGradMatchesRecorded(&model, batch);
}

TEST(InferenceEquivalenceTest, Gcn) {
  const gnn::GraphBatch batch = testing::MakeClique(10, 33);
  gnn::GnnConfig cfg;
  cfg.hidden = {8, 4};
  cfg.mlp_hidden = 4;
  gnn::Gcn model(cfg);
  ExpectNoGradMatchesRecorded(&model, batch);
}

TEST(InferenceEquivalenceTest, GraphSage) {
  const gnn::GraphBatch batch = testing::MakeClique(10, 34);
  gnn::GnnConfig cfg;
  cfg.hidden = {8, 4};
  cfg.mlp_hidden = 4;
  gnn::GraphSage model(cfg);
  ExpectNoGradMatchesRecorded(&model, batch);
}

TEST(InferenceEquivalenceTest, Gat) {
  const gnn::GraphBatch batch = testing::MakePath(12, 35);
  gnn::GnnConfig cfg;
  cfg.hidden = {8, 4};
  cfg.mlp_hidden = 4;
  cfg.attention_dim = 4;
  cfg.gat_heads = 2;
  gnn::Gat model(cfg);
  ExpectNoGradMatchesRecorded(&model, batch);
}

}  // namespace
}  // namespace turbo::core
