// Quickstart: the full Turbo pipeline in ~60 lines.
//
//   1. Generate a Jimi-Store-like behavior-log workload (stands in for
//      your own logs — see examples/custom_logs.cpp for bringing your
//      own).
//   2. Build the Behavior Network (Algorithm 1) and assemble features.
//   3. Train HAG and score the held-out applications.
//   4. Inductively score one new application from its sampled
//      computation subgraph, exactly like the online path.
//
// Run:  ./build/examples/quickstart [num_users]
#include <cstdio>
#include <cstdlib>

#include "core/turbo.h"

using namespace turbo;

int main(int argc, char** argv) {
  const int num_users = argc > 1 ? std::atoi(argv[1]) : 2000;

  // 1. Workload.
  auto dataset =
      datagen::GenerateScenario(datagen::ScenarioConfig::D1Like(num_users));
  std::printf("scenario: %zu users, %d fraudsters, %zu behavior logs\n",
              dataset.users.size(), dataset.NumFraud(),
              dataset.logs.size());

  // 2. BN + features (hierarchical windows, inverse weights, 80/20 split).
  core::PipelineConfig pipeline;
  auto data = core::PrepareData(std::move(dataset), pipeline);
  std::printf("BN: %zu edges over %d edge types\n",
              data->network.TotalEdges(), kNumEdgeTypes);

  // 3. Train HAG.
  core::HagConfig hag_cfg;
  hag_cfg.hidden = {32, 16};
  hag_cfg.attention_dim = 16;
  hag_cfg.mlp_hidden = 16;
  core::Hag hag(hag_cfg);
  gnn::TrainConfig train_cfg;
  train_cfg.epochs = 40;
  train_cfg.lr = 2e-3f;
  auto scores =
      core::TrainAndScoreGnn(&hag, *data, bn::SamplerConfig{}, train_cfg);
  auto report =
      metrics::Evaluate(scores, data->LabelsFor(data->test_uids));
  std::printf(
      "test split: precision %.2f%%  recall %.2f%%  F1 %.2f%%  AUC %.2f%%\n",
      report.precision_pct, report.recall_pct, report.f1_pct,
      report.auc_pct);

  // 4. Inductive single-user scoring (the serving path).
  const UserId suspect = data->test_uids[0];
  auto batch = core::MakeBatch(*data, {suspect}, bn::SamplerConfig{});
  const double p = gnn::GnnTrainer::PredictTargets(hag, batch)[0];
  std::printf(
      "user %u: fraud probability %.3f (label %d), computation subgraph "
      "%zu nodes\n",
      suspect, p, data->labels[suspect], batch.num_nodes());
  return 0;
}
