#include "core/hag.h"

#include <gtest/gtest.h>

#include "autograd/gradcheck.h"
#include "gnn/trainer.h"
#include "metrics/metrics.h"
#include "tests/core/test_graphs.h"

namespace turbo::core {
namespace {

HagConfig TinyConfig() {
  HagConfig cfg;
  cfg.hidden = {12, 6};
  cfg.mlp_hidden = 6;
  cfg.attention_dim = 6;
  cfg.dropout = 0.0f;
  return cfg;
}

TEST(HagTest, EmbedShapeMatchesLastHidden) {
  auto batch = testing::MakePath(10, 1);
  Hag model(TinyConfig());
  model.Init(6);
  auto h = model.Embed(batch, false, nullptr);
  EXPECT_EQ(h->rows(), 10u);
  EXPECT_EQ(h->cols(), 6u);
  auto logits = model.Logits(batch, false, nullptr);
  EXPECT_EQ(logits->cols(), 1u);
}

TEST(HagTest, AblationNames) {
  HagConfig cfg = TinyConfig();
  EXPECT_EQ(Hag(cfg).name(), "HAG");
  cfg.use_sao = false;
  EXPECT_EQ(Hag(cfg).name(), "SAO(-)");
  cfg.use_sao = true;
  cfg.use_cfo = false;
  EXPECT_EQ(Hag(cfg).name(), "CFO(-)");
  cfg.use_sao = false;
  EXPECT_EQ(Hag(cfg).name(), "Both(-)");
}

TEST(HagTest, SharedChainsKeepParameterCountFlat) {
  HagConfig cfg = TinyConfig();  // share_type_weights = true by default
  Hag full(cfg);
  full.Init(6);
  cfg.use_cfo = false;
  Hag homo(cfg);
  homo.Init(6);
  // With shared SAO transforms, the full model adds only CFO parameters
  // (3 per type) over the homogeneous variant.
  EXPECT_EQ(full.Params().size(),
            homo.Params().size() + 3 * kNumEdgeTypes);
}

TEST(HagTest, UnsharedChainsArePerType) {
  HagConfig cfg = TinyConfig();
  cfg.share_type_weights = false;
  Hag full(cfg);
  full.Init(6);
  cfg.use_cfo = false;
  Hag homo(cfg);
  homo.Init(6);
  // Fully type-specific chains multiply the SAO parameters by |R|.
  EXPECT_GT(full.Params().size(), 4 * homo.Params().size());
}

TEST(HagTest, AblationsChangeParameterCount) {
  HagConfig cfg = TinyConfig();
  Hag hag(cfg);
  hag.Init(6);
  cfg.use_sao = false;
  Hag no_sao(cfg);
  no_sao.Init(6);
  EXPECT_GT(hag.Params().size(), no_sao.Params().size());
}

TEST(HagTest, GradientsFlowToAllParams) {
  auto batch = testing::MakePath(6, 2);
  HagConfig cfg = TinyConfig();
  cfg.hidden = {4, 3};
  cfg.attention_dim = 3;
  cfg.mlp_hidden = 3;
  Hag model(cfg);
  model.Init(6);
  la::Matrix targets(6, 1);
  targets(0, 0) = targets(3, 0) = 1.0f;
  la::Matrix w(6, 1, 1.0f);
  auto loss = ag::BceWithLogits(model.Logits(batch, false, nullptr),
                                targets, w);
  ag::Backward(loss);
  int with_grad = 0;
  for (const auto& p : model.Params()) with_grad += p->has_grad();
  // Every parameter participates (CFO + all chains + head).
  EXPECT_EQ(with_grad, static_cast<int>(model.Params().size()));
}

TEST(HagTest, GradientsMatchNumerical) {
  // Full HAG forward (SAO gate + CFO fusion + head) against finite
  // differences on a small heterogeneous graph.
  auto batch = testing::MakePath(5, 3);
  HagConfig cfg;
  cfg.hidden = {3};
  cfg.attention_dim = 2;
  cfg.mlp_hidden = 2;
  cfg.dropout = 0.0f;
  Hag model(cfg);
  model.Init(6);
  la::Matrix targets(5, 1);
  targets(1, 0) = 1.0f;
  la::Matrix w(5, 1, 1.0f);
  auto res = ag::CheckGradients(model.Params(), [&] {
    return ag::BceWithLogits(model.Logits(batch, false, nullptr), targets,
                             w);
  });
  EXPECT_TRUE(res.ok) << res.detail;
}

TEST(HagTest, LearnsHeterogeneousCommunitySignal) {
  // Community signal lives only on edge type 0; type 1 carries random
  // noise edges. HAG with CFO should still learn the communities.
  Rng rng(9);
  const int size = 20, n = 2 * size;
  bn::Subgraph sg;
  sg.num_targets = n;
  for (int i = 0; i < n; ++i) {
    sg.nodes.push_back(static_cast<UserId>(i));
    sg.local[static_cast<UserId>(i)] = i;
  }
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const bool same = (i < size) == (j < size);
      if (same && rng.NextBool(0.3)) {
        sg.edges[0].push_back({(uint32_t)i, (uint32_t)j, 1.0f});
        sg.edges[0].push_back({(uint32_t)j, (uint32_t)i, 1.0f});
      }
      if (rng.NextBool(0.05)) {  // noise type, label-agnostic
        sg.edges[1].push_back({(uint32_t)i, (uint32_t)j, 1.0f});
        sg.edges[1].push_back({(uint32_t)j, (uint32_t)i, 1.0f});
      }
    }
  }
  la::Matrix features(n, 4);
  std::vector<int> labels(n);
  for (int i = 0; i < n; ++i) {
    labels[i] = i < size;
    for (int c = 0; c < 4; ++c) {
      features(i, c) = static_cast<float>(rng.NextGaussian());
    }
  }
  auto batch = gnn::MakeGraphBatch(sg, features);

  Hag model(TinyConfig());
  model.Init(4);
  gnn::TrainConfig tc;
  tc.epochs = 150;
  tc.lr = 5e-3f;
  gnn::GnnTrainer trainer(tc);
  trainer.Fit(&model, batch, labels);
  auto scores = gnn::GnnTrainer::PredictTargets(model, batch);
  EXPECT_GT(metrics::RocAuc(scores, labels), 0.9);
}

TEST(HagTest, DeterministicForSameSeed) {
  auto batch = testing::MakePath(8, 4);
  Hag a(TinyConfig()), b(TinyConfig());
  a.Init(6);
  b.Init(6);
  auto ha = a.Embed(batch, false, nullptr);
  auto hb = b.Embed(batch, false, nullptr);
  EXPECT_TRUE(la::AllClose(ha->value, hb->value, 0.0f, 0.0f));
}

TEST(HagDeathTest, EmbedBeforeInitAborts) {
  auto batch = testing::MakePath(4, 5);
  Hag model(TinyConfig());
  EXPECT_DEATH(model.Embed(batch, false, nullptr), "CHECK failed");
}

}  // namespace
}  // namespace turbo::core
