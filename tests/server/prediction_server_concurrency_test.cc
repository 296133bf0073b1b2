// Concurrent serving: HandleBatch hammered from several threads while
// the writer keeps running window jobs and publishing snapshots. Run
// under TSan in the sanitizer workflow — the assertions matter, but the
// real product is the absence of data-race reports across the lock-free
// snapshot path, the feature store, and the prediction cache.
#include <future>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/turbo.h"
#include "server/prediction_server.h"

namespace turbo::server {
namespace {

class PredictionServerConcurrencyTest : public ::testing::Test {
 protected:
  static constexpr int kUsers = 400;

  static void SetUpTestSuite() {
    auto ds =
        datagen::GenerateScenario(datagen::ScenarioConfig::D1Like(kUsers));
    core::PipelineConfig pcfg;
    pcfg.bn.windows = {kHour, 6 * kHour, kDay};
    data_ = core::PrepareData(std::move(ds), pcfg).release();
    core::HagConfig hcfg;
    hcfg.hidden = {8, 4};
    hcfg.attention_dim = 4;
    hcfg.mlp_hidden = 4;
    model_ = new core::Hag(hcfg);
    gnn::TrainConfig tcfg;
    tcfg.epochs = 5;
    core::TrainAndScoreGnn(model_, *data_, bn::SamplerConfig{}, tcfg);

    BnServerConfig bcfg;
    bcfg.bn = pcfg.bn;
    bcfg.num_users = kUsers;
    bcfg.snapshot_refresh = kHour;
    bn_ = new BnServer(bcfg);
    bn_->IngestBatch(data_->dataset.logs);
    bn_->AdvanceTo(7 * kDay);

    features::FeatureStoreConfig fcfg;
    features_ = new features::FeatureStore(fcfg, &bn_->logs());
    for (UserId u = 0; u < kUsers; ++u) {
      const float* row = data_->dataset.profile_features.row(u);
      features_->PutProfile(
          u, std::vector<float>(
                 row, row + data_->dataset.profile_features.cols()));
    }
  }
  static void TearDownTestSuite() {
    delete features_;
    delete bn_;
    delete model_;
    delete data_;
    features_ = nullptr;
  }

  static PredictionConfig ServingConfig() {
    PredictionConfig cfg;
    cfg.cache_capacity = 256;
    return cfg;
  }

  static core::PreparedData* data_;
  static core::Hag* model_;
  static BnServer* bn_;
  static features::FeatureStore* features_;
};

core::PreparedData* PredictionServerConcurrencyTest::data_ = nullptr;
core::Hag* PredictionServerConcurrencyTest::model_ = nullptr;
BnServer* PredictionServerConcurrencyTest::bn_ = nullptr;
features::FeatureStore* PredictionServerConcurrencyTest::features_ =
    nullptr;

TEST_F(PredictionServerConcurrencyTest,
       HandleBatchRacesWindowJobsAndSnapshotPublishes) {
  PredictionServer server(ServingConfig(), bn_, features_, model_,
                          &data_->scaler);
  constexpr int kThreads = 4;
  constexpr int kIterations = 12;
  constexpr int kBatch = 4;

  std::mutex mu;
  std::set<uint64_t> seen_ids;
  size_t responses = 0;

  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      for (int it = 0; it < kIterations; ++it) {
        std::vector<UserId> uids;
        for (int b = 0; b < kBatch; ++b) {
          uids.push_back(static_cast<UserId>(
              (t * kIterations * kBatch + it * kBatch + b) % kUsers));
        }
        auto resps = server.HandleBatch(uids);
        std::lock_guard<std::mutex> lock(mu);
        for (const auto& r : resps) {
          EXPECT_GE(r.fraud_probability, 0.0);
          EXPECT_LE(r.fraud_probability, 1.0);
          EXPECT_EQ(r.batch_size, kBatch);
          EXPECT_GT(r.snapshot_version, 0u);
          // Ids must be globally unique — the old value() readback
          // handed duplicate ids to concurrent requests.
          EXPECT_TRUE(seen_ids.insert(r.request_id).second)
              << "duplicate request id " << r.request_id;
          ++responses;
        }
      }
    });
  }
  // Writer: advance time so window jobs run and snapshots publish while
  // the readers sample.
  SimTime t = bn_->now();
  for (int i = 0; i < 40; ++i) {
    t += kHour / 2;
    bn_->AdvanceTo(t);
  }
  for (auto& r : readers) r.join();
  EXPECT_EQ(responses,
            static_cast<size_t>(kThreads) * kIterations * kBatch);
  EXPECT_EQ(server.metrics().RenderJson().empty(), false);
}

TEST_F(PredictionServerConcurrencyTest, BatchIdsAreContiguousAndOrdered) {
  PredictionServer server(ServingConfig(), bn_, features_, model_,
                          &data_->scaler);
  auto resps = server.HandleBatch({1, 2, 3, 4, 5});
  ASSERT_EQ(resps.size(), 5u);
  for (size_t i = 0; i < resps.size(); ++i) {
    EXPECT_EQ(resps[i].request_id, resps[0].request_id + i);
    EXPECT_EQ(resps[i].batch_size, 5);
    EXPECT_NEAR(resps[i].total_ms,
                resps[i].sampling_ms + resps[i].feature_ms +
                    resps[i].inference_ms,
                1e-9);
  }
}

TEST_F(PredictionServerConcurrencyTest, CacheHitsKeyOnSnapshotVersion) {
  PredictionServer server(ServingConfig(), bn_, features_, model_,
                          &data_->scaler);
  const UserId uid = 7;
  auto first = server.Handle(uid);
  EXPECT_FALSE(first.cache_hit);
  auto second = server.Handle(uid);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.fraud_probability, first.fraud_probability);
  EXPECT_EQ(second.snapshot_version, first.snapshot_version);

  // A new snapshot publish invalidates the cache (keys carry the
  // version).
  const uint64_t before = bn_->snapshot_version();
  SimTime t = bn_->now();
  while (bn_->snapshot_version() == before) {
    t += kHour;
    bn_->AdvanceTo(t);
  }
  auto third = server.Handle(uid);
  EXPECT_FALSE(third.cache_hit);
  EXPECT_GT(third.snapshot_version, first.snapshot_version);
}

TEST_F(PredictionServerConcurrencyTest, SubmitAsyncCoalescesIntoBatches) {
  PredictionServer server(ServingConfig(), bn_, features_, model_,
                          &data_->scaler);
  BatchingConfig bcfg;
  bcfg.max_batch_size = 8;
  bcfg.workers = 2;
  bcfg.max_wait_ms = 2.0;
  server.StartBatching(bcfg);

  std::vector<std::future<PredictionResponse>> futures;
  for (UserId u = 0; u < 32; ++u) {
    futures.push_back(server.SubmitAsync(u % kUsers));
  }
  int batched = 0;
  for (auto& f : futures) {
    auto resp = f.get();
    EXPECT_GE(resp.fraud_probability, 0.0);
    EXPECT_LE(resp.fraud_probability, 1.0);
    EXPECT_GE(resp.batch_size, 1);
    EXPECT_LE(resp.batch_size, bcfg.max_batch_size);
    if (resp.batch_size > 1) ++batched;
  }
  server.StopBatching();
  // With 32 rapid submissions against 2 workers, at least some requests
  // must have shared a batch.
  EXPECT_GT(batched, 0);

  // After StopBatching, SubmitAsync degrades to synchronous handling.
  auto resp = server.SubmitAsync(3).get();
  EXPECT_EQ(resp.batch_size, 1);
}

}  // namespace
}  // namespace turbo::server
