// Learning-behavior tests for the GNN baselines on a synthetic
// two-community graph whose label signal is stronger in the topology than
// in the raw features — aggregation must help.
#include <gtest/gtest.h>

#include "gnn/gat.h"
#include "gnn/gcn.h"
#include "gnn/sage.h"
#include "gnn/trainer.h"
#include "metrics/metrics.h"

namespace turbo::gnn {
namespace {

struct Community {
  GraphBatch batch;
  std::vector<int> labels;  // per node
};

// Two communities of `size`; intra-community edges with prob 0.3 split
// between edge types 0 and 1; weak per-node feature signal.
Community MakeCommunities(int size, uint64_t seed) {
  Rng rng(seed);
  const int n = 2 * size;
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
        const int type = rng.NextBool(0.5) ? 0 : 1;
        sg.edges[type].push_back({static_cast<uint32_t>(i),
                                  static_cast<uint32_t>(j), 1.0f});
        sg.edges[type].push_back({static_cast<uint32_t>(j),
                                  static_cast<uint32_t>(i), 1.0f});
      } else if (!same && rng.NextBool(0.02)) {
        sg.edges[0].push_back({static_cast<uint32_t>(i),
                               static_cast<uint32_t>(j), 1.0f});
        sg.edges[0].push_back({static_cast<uint32_t>(j),
                               static_cast<uint32_t>(i), 1.0f});
      }
    }
  }
  la::Matrix features(n, 4);
  Community out;
  for (int i = 0; i < n; ++i) {
    const bool pos = i < size;
    out.labels.push_back(pos);
    features(i, 0) =
        static_cast<float>(rng.NextGaussian(pos ? 0.4 : -0.4, 1.0));
    for (int c = 1; c < 4; ++c) {
      features(i, c) = static_cast<float>(rng.NextGaussian());
    }
  }
  // Feature matrix is indexed by global id == local id here.
  out.batch = MakeGraphBatch(sg, features);
  return out;
}

GnnConfig TinyConfig() {
  GnnConfig cfg;
  cfg.hidden = {16, 8};
  cfg.mlp_hidden = 8;
  cfg.attention_dim = 8;
  cfg.dropout = 0.05f;
  return cfg;
}

TrainConfig FastTrain() {
  TrainConfig cfg;
  cfg.epochs = 120;
  cfg.lr = 5e-3f;
  return cfg;
}

double TrainEvalAuc(GnnModel* model) {
  auto train = MakeCommunities(25, 1);
  auto test = MakeCommunities(25, 2);
  model->Init(4);
  GnnTrainer trainer(FastTrain());
  trainer.Fit(model, train.batch, train.labels);
  auto scores = GnnTrainer::PredictTargets(*model, test.batch);
  return metrics::RocAuc(scores, test.labels);
}

TEST(GcnTest, LearnsCommunityStructureInductively) {
  Gcn model(TinyConfig());
  EXPECT_GT(TrainEvalAuc(&model), 0.85);
}

TEST(SageTest, LearnsCommunityStructureInductively) {
  GraphSage model(TinyConfig());
  EXPECT_GT(TrainEvalAuc(&model), 0.85);
}

TEST(GatTest, LearnsCommunityStructureInductively) {
  // Attention models need a larger step on this tiny graph to escape the
  // feature-memorization regime (its relative weakness vs GraphSAGE is
  // consistent with Table III).
  auto train = MakeCommunities(25, 1);
  auto test = MakeCommunities(25, 2);
  Gat model(TinyConfig());
  model.Init(4);
  TrainConfig tc = FastTrain();
  tc.lr = 5e-2f;
  GnnTrainer trainer(tc);
  trainer.Fit(&model, train.batch, train.labels);
  auto scores = GnnTrainer::PredictTargets(model, test.batch);
  EXPECT_GT(metrics::RocAuc(scores, test.labels), 0.85);
}

TEST(GnnTest, GraphModelsBeatFeatureOnlySignal) {
  // The per-node feature signal alone gives a mediocre AUC; the trained
  // GNN should clearly exceed it.
  auto test = MakeCommunities(25, 2);
  std::vector<double> feature_scores;
  for (size_t i = 0; i < test.batch.num_nodes(); ++i) {
    feature_scores.push_back(test.batch.features(i, 0));
  }
  const double feature_auc = metrics::RocAuc(feature_scores, test.labels);
  GraphSage model(TinyConfig());
  const double gnn_auc = TrainEvalAuc(&model);
  EXPECT_GT(gnn_auc, feature_auc + 0.05);
}

TEST(TrainerTest, LossDecreasesOverTraining) {
  auto data = MakeCommunities(20, 3);
  GraphSage model(TinyConfig());
  model.Init(4);
  TrainConfig one;
  one.epochs = 1;
  const double initial = GnnTrainer(one).Fit(&model, data.batch, data.labels);
  TrainConfig more;
  more.epochs = 100;
  more.lr = 5e-3f;
  const double trained = GnnTrainer(more).Fit(&model, data.batch, data.labels);
  EXPECT_LT(trained, initial * 0.7);
}

TEST(TrainerTest, PredictionsAreProbabilities) {
  auto data = MakeCommunities(10, 4);
  Gcn model(TinyConfig());
  model.Init(4);
  GnnTrainer trainer(FastTrain());
  trainer.Fit(&model, data.batch, data.labels);
  for (double p : GnnTrainer::PredictAll(model, data.batch)) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(TrainerTest, MaskedLossIgnoresContextRows) {
  // Only 10 of 40 rows are targets; labels vector must match target count.
  auto data = MakeCommunities(20, 5);
  data.batch.num_targets = 10;
  data.labels.resize(10);
  GraphSage model(TinyConfig());
  model.Init(4);
  GnnTrainer trainer(FastTrain());
  EXPECT_NO_FATAL_FAILURE(trainer.Fit(&model, data.batch, data.labels));
  auto scores = GnnTrainer::PredictTargets(model, data.batch);
  EXPECT_EQ(scores.size(), 10u);
}

TEST(TrainerDeathTest, LabelCountMismatchAborts) {
  auto data = MakeCommunities(10, 6);
  GraphSage model(TinyConfig());
  model.Init(4);
  GnnTrainer trainer(FastTrain());
  std::vector<int> bad(data.batch.num_targets + 1, 0);
  EXPECT_DEATH(trainer.Fit(&model, data.batch, bad), "CHECK failed");
}

TEST(GnnTest, DeterministicTrainingForSameSeed) {
  auto data = MakeCommunities(15, 7);
  GraphSage a(TinyConfig()), b(TinyConfig());
  a.Init(4);
  b.Init(4);
  GnnTrainer ta(FastTrain()), tb(FastTrain());
  ta.Fit(&a, data.batch, data.labels);
  tb.Fit(&b, data.batch, data.labels);
  auto pa = GnnTrainer::PredictAll(a, data.batch);
  auto pb = GnnTrainer::PredictAll(b, data.batch);
  for (size_t i = 0; i < pa.size(); ++i) EXPECT_DOUBLE_EQ(pa[i], pb[i]);
}

}  // namespace
}  // namespace turbo::gnn
