#include "core/turbo.h"

#include <algorithm>

#include "features/stat_features.h"

namespace turbo::core {

std::vector<int> PreparedData::LabelsFor(
    const std::vector<UserId>& uids) const {
  std::vector<int> out;
  out.reserve(uids.size());
  for (UserId u : uids) out.push_back(labels[u]);
  return out;
}

la::Matrix PreparedData::FeaturesFor(const std::vector<UserId>& uids) const {
  la::Matrix out(uids.size(), features.cols());
  for (size_t i = 0; i < uids.size(); ++i) {
    const float* src = features.row(uids[i]);
    std::copy(src, src + features.cols(), out.row(i));
  }
  return out;
}

void SplitByUid(size_t num_users, double test_fraction, uint64_t seed,
                std::vector<UserId>* train, std::vector<UserId>* test) {
  TURBO_CHECK_GT(test_fraction, 0.0);
  TURBO_CHECK_LT(test_fraction, 1.0);
  std::vector<UserId> all(num_users);
  for (size_t i = 0; i < num_users; ++i) all[i] = static_cast<UserId>(i);
  Rng rng(seed);
  rng.Shuffle(&all);
  const size_t n_test = std::max<size_t>(
      1, static_cast<size_t>(num_users * test_fraction));
  test->assign(all.begin(), all.begin() + n_test);
  train->assign(all.begin() + n_test, all.end());
}

void SplitByUidStratified(const std::vector<int>& labels,
                          double test_fraction, uint64_t seed,
                          std::vector<UserId>* train,
                          std::vector<UserId>* test) {
  TURBO_CHECK_GT(test_fraction, 0.0);
  TURBO_CHECK_LT(test_fraction, 1.0);
  std::vector<UserId> pos, neg;
  for (size_t i = 0; i < labels.size(); ++i) {
    (labels[i] != 0 ? pos : neg).push_back(static_cast<UserId>(i));
  }
  Rng rng(seed);
  rng.Shuffle(&pos);
  rng.Shuffle(&neg);
  train->clear();
  test->clear();
  auto take = [&](std::vector<UserId>& ids) {
    const size_t n_test = static_cast<size_t>(ids.size() * test_fraction);
    test->insert(test->end(), ids.begin(), ids.begin() + n_test);
    train->insert(train->end(), ids.begin() + n_test, ids.end());
  };
  take(pos);
  take(neg);
  rng.Shuffle(train);
  rng.Shuffle(test);
}

std::unique_ptr<PreparedData> PrepareData(datagen::Dataset dataset,
                                          const PipelineConfig& config) {
  auto data = std::make_unique<PreparedData>();
  data->dataset = std::move(dataset);
  const auto& ds = data->dataset;
  const size_t n = ds.users.size();

  // Ingest logs and build BN (Algorithm 1 over the full range).
  data->logs.AppendBatch(ds.logs);
  bn::BnBuilder builder(config.bn, &data->edges);
  builder.BuildFromLogs(ds.logs);
  // No TTL expiry here: the 60-day TTL is an online-serving mechanism
  // (Section V, exercised by server::BnServer); the paper's offline BN
  // keeps the full 18-month edge set (Table II).

  // Snapshot build fuses the per-type degree normalization; masking is a
  // zero-copy view over the same CSR arrays (per-type degrees are
  // independent across types, so mask-then-normalize and
  // normalize-then-mask coincide).
  bn::GraphView network(
      bn::BnSnapshot::Build(data->edges, static_cast<int>(n)));
  if (config.mask_edge_type >= 0) {
    network = network.WithTypeMasked(config.mask_edge_type);
  }
  data->network = network;

  // Node features: profile/transaction (+ behavior statistics as of the
  // audit moment).
  la::Matrix raw = ds.profile_features;
  if (config.include_stat_features) {
    std::vector<UserId> uids(n);
    std::vector<SimTime> as_of(n);
    for (size_t i = 0; i < n; ++i) {
      uids[i] = static_cast<UserId>(i);
      as_of[i] = ds.users[i].application_time + config.audit_delay;
    }
    la::Matrix stats =
        features::ComputeStatFeatureMatrix(data->logs, uids, as_of);
    raw = la::ConcatCols(raw, stats);
  }

  data->labels = ds.Labels();
  SplitByUidStratified(data->labels, config.test_fraction,
                       config.split_seed, &data->train_uids,
                       &data->test_uids);

  // Standardize on the training split only.
  std::vector<int> train_rows(data->train_uids.begin(),
                              data->train_uids.end());
  data->scaler.Fit(raw, train_rows);
  data->features = data->scaler.Transform(raw);
  return data;
}

gnn::GraphBatch MakeBatch(const PreparedData& data,
                          const std::vector<UserId>& targets,
                          const bn::SamplerConfig& sampler_cfg) {
  bn::SubgraphSampler sampler(data.network, sampler_cfg);
  auto sg = sampler.Sample(targets);
  return gnn::MakeGraphBatch(sg, data.features);
}

std::vector<double> TrainAndScoreGnn(gnn::GnnModel* model,
                                     const PreparedData& data,
                                     const bn::SamplerConfig& sampler_cfg,
                                     const gnn::TrainConfig& train_cfg) {
  model->Init(static_cast<int>(data.features.cols()));
  auto train_batch = MakeBatch(data, data.train_uids, sampler_cfg);
  gnn::GnnTrainer trainer(train_cfg);
  trainer.Fit(model, train_batch, data.LabelsFor(data.train_uids));
  auto test_batch = MakeBatch(data, data.test_uids, sampler_cfg);
  return gnn::GnnTrainer::PredictTargets(*model, test_batch);
}

}  // namespace turbo::core
