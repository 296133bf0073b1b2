#include "server/prediction_server.h"

#include <algorithm>
#include <chrono>

#include "gnn/trainer.h"
#include "util/time_util.h"

namespace turbo::server {

PredictionServer::PredictionServer(PredictionConfig config, BnServer* bn,
                                   features::FeatureStore* features,
                                   core::Hag* model,
                                   const ml::StandardScaler* scaler)
    : config_(config),
      bn_(bn),
      features_(features),
      model_(model),
      scaler_(scaler),
      cache_(std::max<size_t>(1, config.cache_capacity)) {
  TURBO_CHECK(bn_ != nullptr);
  TURBO_CHECK(features_ != nullptr);
  TURBO_CHECK(model_ != nullptr);
  TURBO_CHECK(scaler_ != nullptr);
  if (config_.metrics != nullptr) {
    metrics_ = config_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  requests_ = metrics_->GetCounter("predict_requests_total");
  blocked_ = metrics_->GetCounter("predict_blocked_total");
  cache_hits_ = metrics_->GetCounter("predict_cache_hits_total");
  cache_misses_ = metrics_->GetCounter("predict_cache_misses_total");
  deadline_shed_ = metrics_->GetCounter("prediction_deadline_shed_total");
  queue_rejected_ =
      metrics_->GetCounter("prediction_queue_rejected_total");
  queue_depth_g_ = metrics_->GetGauge("prediction_queue_depth");
  sample_ms_ = metrics_->GetHistogram("predict_sample_ms");
  feature_ms_ = metrics_->GetHistogram("predict_feature_ms");
  inference_ms_ = metrics_->GetHistogram("predict_inference_ms");
  total_ms_ = metrics_->GetHistogram("predict_total_ms");
  subgraph_nodes_ = metrics_->GetHistogram(
      "predict_subgraph_nodes", obs::Histogram::DefaultSizeBuckets());
  batch_size_ = metrics_->GetHistogram("predict_batch_size",
                                       obs::Histogram::DefaultSizeBuckets());
}

PredictionServer::~PredictionServer() { StopBatching(); }

PredictionResponse PredictionServer::Handle(UserId uid) {
  return HandleBatch({uid}).front();
}

std::vector<PredictionResponse> PredictionServer::HandleBatch(
    const std::vector<UserId>& uids) {
  std::vector<PredictionResponse> out(uids.size());
  if (uids.empty()) return out;
  const size_t n = uids.size();
  const SimTime as_of = bn_->now();
  // The fetch-add result is the only race-free source of ids: a separate
  // value() read can observe another thread's concurrent increment.
  const uint64_t last_id = requests_->Increment(n);
  const uint64_t first_id = last_id - n + 1;
  batch_size_->Observe(static_cast<double>(n));
  obs::StageTimer trace(metrics_, "predict", first_id);
  for (size_t i = 0; i < n; ++i) {
    out[i].request_id = first_id + i;
    out[i].batch_size = static_cast<int>(n);
  }

  // 0) Snapshot-versioned cache probe. Keys carry the version, so a
  // fresh snapshot can never serve a stale hit; the Clear on version
  // change just reclaims dead entries eagerly.
  uint64_t version = bn_->snapshot_version();
  std::vector<size_t> miss;  // positions in `uids` needing compute
  miss.reserve(n);
  if (config_.cache_capacity > 0) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (version != cache_version_) {
      cache_.Clear();
      cache_version_ = version;
    }
    for (size_t i = 0; i < n; ++i) {
      auto hit = cache_.Get(CacheKey(config_.shard_tag, uids[i], version));
      if (hit.has_value()) {
        out[i].fraud_probability = hit->probability;
        out[i].subgraph_nodes = hit->subgraph_nodes;
        out[i].snapshot_version = version;
        out[i].cache_hit = true;
        cache_hits_->Increment();
      } else {
        miss.push_back(i);
        cache_misses_->Increment();
      }
    }
  } else {
    for (size_t i = 0; i < n; ++i) miss.push_back(i);
  }

  double sample_total = 0.0, feature_total = 0.0, inference_total = 0.0;
  if (!miss.empty()) {
    std::vector<UserId> targets;
    targets.reserve(miss.size());
    for (size_t idx : miss) targets.push_back(uids[idx]);

    // 1) BN server: one merged computation subgraph from one pinned
    // snapshot (target rows come first, in `targets` order).
    bn::Subgraph sg;
    {
      auto span = trace.StartSpan("sample");
      storage::SimClock sample_clock;
      sg = bn_->SampleSubgraph(targets);
      // Modeled cost of shipping the subgraph out of the graph store: one
      // query per node's adjacency rows.
      sample_clock.ChargeQuery(storage::MediumCost::InMemoryCache(),
                               static_cast<int64_t>(sg.NumEdges()));
      span.AddModeledMillis(sample_clock.ElapsedMillis());
      sample_total = span.Stop();
    }
    version = sg.snapshot_version;
    subgraph_nodes_->Observe(static_cast<double>(sg.nodes.size()));

    // 2) Feature management: raw features for every sampled node, scaled
    // with the training scaler.
    la::Matrix scaled;
    {
      auto span = trace.StartSpan("feature");
      storage::SimClock feature_clock;
      la::Matrix raw;
      for (size_t i = 0; i < sg.nodes.size(); ++i) {
        auto row =
            features_->GetFeatures(sg.nodes[i], as_of, &feature_clock);
        TURBO_CHECK_MSG(!row.empty(), "no profile row for uid "
                                          << sg.nodes[i]);
        if (raw.empty()) raw = la::Matrix(sg.nodes.size(), row.size());
        TURBO_CHECK_EQ(row.size(), raw.cols());
        std::copy(row.begin(), row.end(), raw.row(i));
      }
      scaled = scaler_->Transform(raw);
      span.AddModeledMillis(feature_clock.ElapsedMillis());
      feature_total = span.Stop();
    }

    // 3) Prediction server: one merged model forward for the batch.
    {
      auto span = trace.StartSpan("inference");
      gnn::GraphBatch batch;
      {
        // MakeGraphBatch gathers feature rows by the ids in sg.nodes; the
        // scaled matrix here is already local-row aligned, so remap the
        // node list to the identity and restore the global ids afterwards.
        bn::Subgraph local = sg;
        for (size_t i = 0; i < local.nodes.size(); ++i) {
          local.nodes[i] = static_cast<UserId>(i);
        }
        batch = gnn::MakeGraphBatch(local, scaled);
        batch.global_ids = sg.nodes;
      }
      const std::vector<double> probs =
          gnn::GnnTrainer::PredictTargets(*model_, batch);
      // One probability per distinct target: a batch naming the same uid
      // twice (e.g. a retry racing its original) collapses to one target
      // row in the sampler, so map each request position back through
      // sg.local rather than assuming probs lines up with `miss`.
      TURBO_CHECK_EQ(probs.size(), sg.num_targets);
      for (size_t j = 0; j < miss.size(); ++j) {
        const int row = sg.local.at(uids[miss[j]]);
        out[miss[j]].fraud_probability = probs[row];
        out[miss[j]].subgraph_nodes = static_cast<int>(sg.nodes.size());
        out[miss[j]].snapshot_version = version;
      }
      inference_total = span.Stop();
    }

    if (config_.cache_capacity > 0) {
      std::lock_guard<std::mutex> lock(cache_mu_);
      for (size_t idx : miss) {
        cache_.Put(CacheKey(config_.shard_tag, uids[idx], version),
                   CachedPrediction{out[idx].fraud_probability,
                                    out[idx].subgraph_nodes});
      }
    }
  }

  const double total = trace.Finish();
  const double inv_n = 1.0 / static_cast<double>(n);
  for (size_t i = 0; i < n; ++i) {
    out[i].sampling_ms = sample_total * inv_n;
    out[i].feature_ms = feature_total * inv_n;
    out[i].inference_ms = inference_total * inv_n;
    out[i].total_ms = total * inv_n;
    out[i].blocked = out[i].fraud_probability >= config_.threshold;
    if (out[i].blocked) blocked_->Increment();
  }
  return out;
}

void PredictionServer::StartBatching(BatchingConfig config) {
  TURBO_CHECK_GT(config.max_batch_size, 0);
  TURBO_CHECK_GT(config.workers, 0);
  TURBO_CHECK_GE(config.max_wait_ms, 0.0);
  StopBatching();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    batching_ = config;
    batching_running_ = true;
  }
  batch_workers_.reserve(config.workers);
  for (int i = 0; i < config.workers; ++i) {
    batch_workers_.emplace_back([this] { BatchWorkerLoop(); });
  }
}

void PredictionServer::StopBatching() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (!batching_running_ && batch_workers_.empty()) return;
    batching_running_ = false;
  }
  queue_cv_.notify_all();
  for (auto& w : batch_workers_) w.join();
  batch_workers_.clear();
}

PredictionResponse PredictionServer::ShedResponse() {
  PredictionResponse r;
  r.shed = true;
  return r;
}

std::future<PredictionResponse> PredictionServer::SubmitAsync(UserId uid) {
  return SubmitWithDeadline(uid, Deadline::max());
}

std::future<PredictionResponse> PredictionServer::SubmitWithDeadline(
    UserId uid, Deadline deadline) {
  // The promise rides in a shared_ptr because DoneCallback must be
  // copyable; the callback fires exactly once.
  auto p = std::make_shared<std::promise<PredictionResponse>>();
  std::future<PredictionResponse> fut = p->get_future();
  SubmitCallback(uid, deadline,
                 [p](const PredictionResponse& r) { p->set_value(r); });
  return fut;
}

bool PredictionServer::SubmitCallback(UserId uid, Deadline deadline,
                                      DoneCallback done) {
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    if (batching_running_) {
      if (batching_.max_queue > 0 &&
          queue_.size() >= batching_.max_queue) {
        // Admission rejection: queued past the cap the request would
        // only wait to miss its deadline while delaying everyone else.
        lock.unlock();
        queue_rejected_->Increment();
        done(ShedResponse());
        return false;
      }
      queue_.push_back(PendingRequest{uid, deadline, std::move(done)});
      queue_depth_g_->Set(static_cast<double>(queue_.size()));
      lock.unlock();
      queue_cv_.notify_one();
      return true;
    }
  }
  // Queue not running: serve synchronously so callers never hang — but
  // still honor an already-expired deadline.
  if (std::chrono::steady_clock::now() >= deadline) {
    deadline_shed_->Increment();
    done(ShedResponse());
    return true;
  }
  done(Handle(uid));
  return true;
}

void PredictionServer::BatchWorkerLoop() {
  for (;;) {
    std::vector<PendingRequest> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return !batching_running_ || !queue_.empty();
      });
      // Stopped: drain whatever is queued, then exit.
      if (queue_.empty()) return;
      const size_t want = static_cast<size_t>(batching_.max_batch_size);
      if (batching_running_ && queue_.size() < want &&
          batching_.max_wait_ms > 0.0) {
        // Coalescing window: give concurrent submitters a moment to fill
        // the batch before running a partial one.
        queue_cv_.wait_for(
            lock,
            std::chrono::duration<double, std::milli>(batching_.max_wait_ms),
            [this, want] {
              return !batching_running_ || queue_.size() >= want;
            });
      }
      const size_t take = std::min(want, queue_.size());
      batch.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      queue_depth_g_->Set(static_cast<double>(queue_.size()));
    }
    if (batch.empty()) continue;
    // Deadline check happens here — after the queue wait, before any
    // sampling/feature/inference cost. Expired requests complete with a
    // shed response; the survivors run the unchanged HandleBatch path,
    // so admission control cannot alter a served prediction.
    const auto now = std::chrono::steady_clock::now();
    std::vector<PendingRequest> live;
    live.reserve(batch.size());
    for (auto& r : batch) {
      if (now >= r.deadline) {
        deadline_shed_->Increment();
        r.done(ShedResponse());
      } else {
        live.push_back(std::move(r));
      }
    }
    if (live.empty()) continue;
    std::vector<UserId> uids;
    uids.reserve(live.size());
    for (const auto& r : live) uids.push_back(r.uid);
    std::vector<PredictionResponse> resps = HandleBatch(uids);
    for (size_t i = 0; i < live.size(); ++i) {
      live[i].done(resps[i]);
    }
  }
}

}  // namespace turbo::server
