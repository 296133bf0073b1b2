// SIMD-tier equivalence at model level: the serving forward (Embed and
// Logits under ag::NoGradScope) under every supported SIMD tier must
// stay within 4 ULP (with a cancellation abs-floor) of the forced-scalar
// forward,
// for HAG under every SAO x CFO ablation combo and for all three
// baselines. This is the end-to-end companion of the kernel-level sweep
// in tests/la/dispatch_test.cc: kernels that individually stay within a
// few ULP could still compound through layers, so the bound here is on
// the full forward.
#include <cmath>
#include <limits>
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

using la::testing::ExpectUlpClose;

constexpr int64_t kMaxUlps = 4;

std::vector<int> AlternatingLabels(size_t n) {
  std::vector<int> labels(n);
  for (size_t i = 0; i < n; ++i) labels[i] = static_cast<int>(i % 2);
  return labels;
}

/// Cancellation floor scaled to the magnitude of the reference output:
/// a layer stack accumulates over O(hidden * layers) terms, so elements
/// whose true value is tiny relative to the activations cannot hold a
/// relative ULP bound.
float ModelFloor(const la::Matrix& ref) {
  return 64.0f * std::numeric_limits<float>::epsilon() * ref.MaxAbs();
}

/// Trains briefly under the scalar tier (training dispatches too, so the
/// pin keeps the weights identical on every host), then sweeps every
/// supported SIMD tier against the forced-scalar no-grad forward.
void ExpectSimdMatchesScalar(gnn::GnnModel* model,
                             const gnn::GraphBatch& batch) {
  la::Matrix emb_ref, logits_ref;
  {
    la::ScopedKernelIsa scalar(la::KernelIsa::kScalar);
    model->Init(static_cast<int>(batch.features.cols()));
    gnn::TrainConfig tcfg;
    tcfg.epochs = 8;
    gnn::GnnTrainer trainer(tcfg);
    trainer.Fit(model, batch, AlternatingLabels(batch.num_targets));
    ag::NoGradScope no_grad;
    emb_ref = model->Embed(batch, /*training=*/false, nullptr)->value;
    logits_ref = model->Logits(batch, /*training=*/false, nullptr)->value;
  }
  ag::NoGradScope no_grad;
  for (la::KernelIsa isa : la::testing::SupportedIsas()) {
    if (isa == la::KernelIsa::kScalar) continue;
    la::ScopedKernelIsa forced(isa);
    SCOPED_TRACE(la::IsaName(isa));
    ExpectUlpClose(emb_ref,
                   model->Embed(batch, /*training=*/false, nullptr)->value,
                   kMaxUlps, ModelFloor(emb_ref), "Embed");
    ExpectUlpClose(logits_ref,
                   model->Logits(batch, /*training=*/false, nullptr)->value,
                   kMaxUlps, ModelFloor(logits_ref), "Logits");
  }
}

TEST(SimdEquivalenceTest, HagAllAblationFlagCombos) {
  const gnn::GraphBatch batch = testing::MakePath(12, 41);
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
      ExpectSimdMatchesScalar(&model, batch);
    }
  }
}

TEST(SimdEquivalenceTest, HagTypeSpecificChains) {
  const gnn::GraphBatch batch = testing::MakePath(12, 42);
  HagConfig cfg;
  cfg.hidden = {8, 4};
  cfg.attention_dim = 4;
  cfg.mlp_hidden = 4;
  cfg.share_type_weights = false;
  Hag model(cfg);
  ExpectSimdMatchesScalar(&model, batch);
}

TEST(SimdEquivalenceTest, Gcn) {
  const gnn::GraphBatch batch = testing::MakeClique(10, 43);
  gnn::GnnConfig cfg;
  cfg.hidden = {8, 4};
  cfg.mlp_hidden = 4;
  gnn::Gcn model(cfg);
  ExpectSimdMatchesScalar(&model, batch);
}

TEST(SimdEquivalenceTest, GraphSage) {
  const gnn::GraphBatch batch = testing::MakeClique(10, 44);
  gnn::GnnConfig cfg;
  cfg.hidden = {8, 4};
  cfg.mlp_hidden = 4;
  gnn::GraphSage model(cfg);
  ExpectSimdMatchesScalar(&model, batch);
}

TEST(SimdEquivalenceTest, Gat) {
  const gnn::GraphBatch batch = testing::MakePath(12, 45);
  gnn::GnnConfig cfg;
  cfg.hidden = {8, 4};
  cfg.mlp_hidden = 4;
  cfg.attention_dim = 4;
  cfg.gat_heads = 2;
  gnn::Gat model(cfg);
  ExpectSimdMatchesScalar(&model, batch);
}

}  // namespace
}  // namespace turbo::core
