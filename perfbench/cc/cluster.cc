// cluster: a 2-shard BN cluster over loopback sockets in one process —
// per shard a BnServer, a PredictionServer and a net::ShardService, and
// one net::RemoteShardClient connection per shard behind a handle-mode
// BnCluster. One client thread drives it closed loop (RpcClient allows
// one call in flight per connection). Each sim-hour: BnCluster::Ingest
// for every log of the hour (one RPC per log per owning shard), the
// AdvanceTo barrier, then kPredictsPerHour RemoteShardClient::Predict
// calls to seeded targets' home shards. The clock moves, so feature
// reads miss and recompute from the LogStore, and snapshots churn
// between predictions.
//
// Checks: every remote prediction equals PredictionServer::Handle on
// the same shard and snapshot; after the timed loop, the cluster's
// edges summed over shards equal a single in-process BnServer fed the
// same stream, edge for edge and bit for bit.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "common.h"
#include "core/turbo.h"
#include "net/remote_shard.h"
#include "net/shard_service.h"
#include "server/bn_cluster.h"
#include "server/shard_router.h"
#include "util/check.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace turbo;

constexpr int kShards = 2;
constexpr int kPredictsPerHour = 8;
// The log stream is a fixed fixture; --seed picks the predict targets.
constexpr uint64_t kStreamSeed = 42;
constexpr double kSpeedEveryMs = 50.0;

struct ClusterSize {
  int users = 600;
  size_t logs = 24000;  // per pass
  int hours = 120;      // per pass
};

/// ShardHandle decorator that times each Ingest call into the remote
/// shard.
class TimedHandle final : public server::ShardHandle {
 public:
  explicit TimedHandle(std::unique_ptr<net::RemoteShardClient> inner)
      : inner_(std::move(inner)) {}
  void set_tracer(Tracer* tr) { tracer_ = tr; }
  net::RemoteShardClient* client() { return inner_.get(); }

  void Ingest(const BehaviorLog& log) override {
    Span sp(tracer_, "net.ingest_rpc");
    inner_->Ingest(log);
  }
  bool OfferIngest(const BehaviorLog& log) override {
    return inner_->OfferIngest(log);
  }
  size_t DrainIngest(size_t max_events) override {
    return inner_->DrainIngest(max_events);
  }
  size_t ingest_queue_depth() override { return inner_->ingest_queue_depth(); }
  void AdvanceTo(SimTime now) override { inner_->AdvanceTo(now); }
  Status Checkpoint() override { return inner_->Checkpoint(); }
  Status Recover() override { return inner_->Recover(); }
  bn::Subgraph SampleSubgraph(UserId uid) override {
    return inner_->SampleSubgraph(uid);
  }
  uint64_t snapshot_version() override { return inner_->snapshot_version(); }
  SimTime now() override { return inner_->now(); }
  uint64_t TotalEdges() override { return inner_->TotalEdges(); }

 private:
  std::unique_ptr<net::RemoteShardClient> inner_;
  Tracer* tracer_ = nullptr;
};

server::BnServerConfig ShardTemplate(int users) {
  server::BnServerConfig cfg;
  cfg.num_users = users;
  cfg.snapshot_refresh = kHour;
  cfg.window_job_threads = 1;
  cfg.snapshot_build_threads = 1;
  return cfg;
}

/// Profiles, scaler and model come from a fixed datagen fixture (the
/// model is initialized, not trained: serving cost does not depend on
/// the weights' values), and so does the log stream.
struct Fixture {
  std::unique_ptr<core::PreparedData> data;
  std::unique_ptr<core::Hag> model;
  BehaviorLogList logs;
};

Fixture BuildFixture(const ClusterSize& size) {
  Fixture f;
  core::PipelineConfig pipeline;
  pipeline.bn.windows = {kHour, kDay};
  f.data = core::PrepareData(
      datagen::GenerateScenario(datagen::ScenarioConfig::D1Like(size.users)),
      pipeline);
  f.model = std::make_unique<core::Hag>(BenchHagConfig(42));
  f.model->Init(static_cast<int>(f.data->features.cols()));
  // Communities of 16 give each prediction a few-dozen-node subgraph, so
  // a remote Predict does real sampling and HAG work behind the RPC.
  f.logs = CommunityStream(kStreamSeed, size.users, size.logs, size.hours,
                           /*community=*/16);
  return f;
}

/// The sockets-and-servers part, rebuilt fresh for every pass.
struct Rig {
  std::vector<std::unique_ptr<server::BnServer>> backing;
  std::vector<std::unique_ptr<features::FeatureStore>> features;
  std::vector<std::unique_ptr<obs::MetricsRegistry>> prediction_regs;
  std::vector<std::unique_ptr<server::PredictionServer>> predictions;
  std::vector<std::unique_ptr<net::ShardService>> services;
  std::vector<TimedHandle*> handles;  // owned by `cluster`
  obs::MetricsRegistry client_metrics;
  obs::MetricsRegistry cluster_metrics;
  std::unique_ptr<server::BnCluster> cluster;

  ~Rig() {
    cluster.reset();  // closes the client connections first
    for (auto& s : services) s->Stop();
  }
};

std::unique_ptr<Rig> BuildRig(const Fixture& f, int users) {
  auto r = std::make_unique<Rig>();
  const server::BnServerConfig tmpl = ShardTemplate(users);
  bn::ShardTopology topo = tmpl.bn.topology;
  topo.shard_count = kShards;
  const server::ShardRouter router(topo);
  std::vector<std::unique_ptr<server::ShardHandle>> handles;
  const auto& profiles = f.data->dataset.profile_features;
  for (int i = 0; i < kShards; ++i) {
    server::BnServerConfig scfg = tmpl;
    scfg.bn.topology = router.TopologyForShard(i);
    r->backing.push_back(std::make_unique<server::BnServer>(scfg));
    r->features.push_back(std::make_unique<features::FeatureStore>(
        features::FeatureStoreConfig{}, &r->backing.back()->logs()));
    for (UserId u = 0; u < static_cast<UserId>(users); ++u) {
      const float* row = profiles.row(u);
      r->features.back()->PutProfile(
          u, std::vector<float>(row, row + profiles.cols()));
    }
    r->prediction_regs.push_back(std::make_unique<obs::MetricsRegistry>());
    server::PredictionConfig pcfg;
    pcfg.use_inference_path = true;
    pcfg.shard_tag = static_cast<uint32_t>(i + 1);
    pcfg.metrics = r->prediction_regs.back().get();
    r->predictions.push_back(std::make_unique<server::PredictionServer>(
        pcfg, r->backing.back().get(), r->features.back().get(),
        f.model.get(), &f.data->scaler));

    net::ShardServiceConfig svc;
    svc.endpoint.port = 0;
    auto service_or = net::ShardService::Start(svc, r->backing.back().get(),
                                               r->predictions.back().get());
    TURBO_CHECK_MSG(service_or.ok(), service_or.status().ToString());
    r->services.push_back(service_or.take());
    net::RemoteShardConfig rcfg;
    rcfg.endpoint = r->services.back()->endpoint();
    rcfg.rpc.metrics = &r->client_metrics;
    auto h = std::make_unique<TimedHandle>(
        std::make_unique<net::RemoteShardClient>(rcfg));
    r->handles.push_back(h.get());
    handles.push_back(std::move(h));
  }
  server::BnClusterConfig ccfg;
  ccfg.shard = tmpl;
  // The barrier advances the shards one after the other on the calling
  // thread: on the one pinned CPU a pool adds only hand-offs.
  ccfg.advance_threads = 1;
  ccfg.metrics = &r->cluster_metrics;
  r->cluster = std::make_unique<server::BnCluster>(ccfg, std::move(handles));
  return r;
}

/// Single in-process server fed the same prefix, advanced hour by hour
/// like the cluster; every (type, u, v) weight and the key sets must
/// match the shard-summed cluster edges exactly.
void CheckEdges(const Fixture& f, Rig* r, int users, int hours, bool perturb,
                Result* result) {
  server::BnServer single(ShardTemplate(users));
  size_t i = 0;
  for (int h = 1; h <= hours; ++h) {
    const SimTime end = static_cast<SimTime>(h) * kHour;
    while (i < f.logs.size() && f.logs[i].time < end) {
      single.Ingest(f.logs[i++]);
    }
    single.AdvanceTo(end);
  }
  size_t edges = 0, mismatched = 0;
  for (int t = 0; t < kNumEdgeTypes; ++t) {
    for (UserId u = 0; u < static_cast<UserId>(users); ++u) {
      const auto& want = single.edges().Neighbors(t, u);
      size_t shard_entries = 0;
      for (const auto& shard : r->backing) {
        shard_entries += shard->edges().Neighbors(t, u).size();
      }
      for (const auto& [v, e] : want) {
        double sum = 0.0;
        size_t holders = 0;
        for (const auto& shard : r->backing) {
          const auto& nb = shard->edges().Neighbors(t, u);
          auto it = nb.find(v);
          if (it != nb.end()) {
            sum += it->second.weight;
            ++holders;
          }
        }
        const double expect = perturb && edges == 0 ? e.weight * 2 : e.weight;
        if (holders == 0 || sum != expect) ++mismatched;
        ++edges;
      }
      // Every shard entry must be one of the single server's edges (an
      // edge built on two shards would show as extra entries here).
      mismatched += shard_entries > want.size() ? shard_entries - want.size()
                                                : want.size() - shard_entries;
    }
  }
  char detail[128];
  std::snprintf(detail, sizeof(detail),
                "%zu edges over %d hours, %zu mismatched", edges, hours,
                mismatched);
  result->Check("cluster.edges_match_single_server",
                edges > 0 && mismatched == 0, detail);
}

}  // namespace

int RunCluster(const Options& opts, Result* result) {
  ClusterSize size;
  if (opts.tiny) size = {200, 4000, 48};
  PrintEnvironment(opts, {{"la_kernel_threads", "1"},
                          {"window_job_threads", "1"},
                          {"snapshot_build_threads", "1"},
                          {"cluster_advance_threads", "1"},
                          {"shards", std::to_string(kShards)},
                          {"client_connections_per_shard", "1"},
                          {"predicts_per_hour",
                           std::to_string(kPredictsPerHour)},
                          {"users", std::to_string(size.users)},
                          {"hours_per_pass", std::to_string(size.hours)}});

  Fixture fixture;
  std::unique_ptr<Rig> rig;
  HostSpeed speed;
  const double setup_s = MedianSetupSeconds(
      &speed,
      [&] {
        rig.reset();
        fixture = Fixture{};
        ReleaseFreedMemory();
      },
      [&] {
        fixture = BuildFixture(size);
        rig = BuildRig(fixture, size.users);
      },
      opts.MinSetups());

  // Passes over the same stream, each on a fresh rig, until the run's
  // time is spent. A traced run alternates untraced and traced passes,
  // which do the same work, and compares their rescaled write-path rates.
  Tracer tracer;
  TargetStream targets(MixSeeds(opts.seed, 0xc1), size.users);
  std::vector<Timed> rpc_ms;
  std::vector<std::vector<Timed>> pass_hours;  // write wall per sim-hour
  std::vector<double> overhead_ms;
  std::vector<bool> traced_pass;
  const int min_passes = opts.trace ? 2 : 1;
  size_t logs_total = 0, rpc_failed = 0, mismatched = 0, predicts = 0;
  double forwarded = 0, routed = 0, hit = 0;
  double net_counts[4] = {0, 0, 0, 0};
  const char* net_names[4] = {"net_bytes_sent_total",
                              "net_bytes_received_total",
                              "net_reconnects_total", "net_rpc_errors_total"};
  const auto start = Clock::now();
  for (int pass = 0;
       pass < min_passes || MillisSince(start) < opts.seconds * 1e3; ++pass) {
    if (pass > 0) {
      rig.reset();
      ReleaseFreedMemory();
      rig = BuildRig(fixture, size.users);
    }
    const server::ShardRouter& router = rig->cluster->router();
    size_t i = 0;
    pass_hours.emplace_back();
    Tracer* tr = opts.trace && pass % 2 == 1 ? &tracer : nullptr;
    for (auto* h : rig->handles) h->set_tracer(tr);
    for (int hour = 1; hour <= size.hours; ++hour) {
      speed.SampleEvery(kSpeedEveryMs);  // between hours, untimed
      const SimTime end = static_cast<SimTime>(hour) * kHour;
      const auto w0 = Clock::now();
      while (i < fixture.logs.size() && fixture.logs[i].time < end) {
        rig->cluster->Ingest(fixture.logs[i++]);
      }
      {
        Span sp(tr, "server.barrier");
        rig->cluster->AdvanceTo(end);
      }
      pass_hours.back().push_back({w0, MillisSince(w0)});

      for (int k = 0; k < kPredictsPerHour; ++k) {
        const UserId uid = targets.Next();
        const int owner = router.OwnerOfUser(uid);
        server::PredictionServer& local = *rig->predictions[owner];
        if (tr != nullptr) local.Handle(uid);  // both sides see warm caches
        const auto p0 = Clock::now();
        auto remote = rig->handles[owner]->client()->Predict(uid);
        const double ms = MillisSince(p0);
        ++predicts;
        if (!remote.ok()) {
          ++rpc_failed;
          continue;
        }
        rpc_ms.push_back({p0, ms});
        const auto l0 = Clock::now();
        const server::PredictionResponse want = local.Handle(uid);
        if (tr != nullptr) overhead_ms.push_back(ms - MillisSince(l0));
        double expect = want.fraud_probability;
        if (predicts == 1 && result->Breaking("cluster.remote_equals_local")) {
          expect += 1e-9;
        }
        if (remote.value().fraud_probability != expect ||
            remote.value().snapshot_version != want.snapshot_version) {
          ++mismatched;
        }
      }
    }
    for (auto* h : rig->handles) h->set_tracer(nullptr);
    traced_pass.push_back(tr != nullptr);
    logs_total += i;
    forwarded +=
        rig->cluster_metrics.GetCounter("bn_cluster_forwarded_total")->value();
    routed += rig->cluster_metrics.GetCounter("bn_cluster_ingest_events_total")
                  ->value();
    for (int k = 0; k < 4; ++k) {
      net_counts[k] += rig->client_metrics.GetCounter(net_names[k])->value();
    }
    for (const auto& f : rig->features) hit += f->cache_hit_rate() / kShards;
    if (pass == 0) {
      CheckEdges(fixture, rig.get(), size.users, size.hours,
                 result->Breaking("cluster.edges_match_single_server"), result);
    }
  }
  speed.Sample();
  // Logs per rescaled second of each pass's write path.
  const double logs_per_pass = static_cast<double>(logs_total) /
                               static_cast<double>(pass_hours.size());
  std::vector<double> pass_rates, raw_rates, untraced_rates, traced_rates;
  for (size_t k = 0; k < pass_hours.size(); ++k) {
    raw_rates.push_back(logs_per_pass / (Sum(WallMs(pass_hours[k])) / 1e3));
    pass_rates.push_back(logs_per_pass /
                         (Sum(Rescaled(speed, pass_hours[k])) / 1e3));
    (traced_pass[k] ? traced_rates : untraced_rates)
        .push_back(pass_rates.back());
  }
  const std::vector<double> rpc_scaled = Rescaled(speed, rpc_ms);
  const double passes = static_cast<double>(pass_rates.size());
  result->Attempt(predicts, rpc_failed);
  result->Attempt(logs_total);
  char detail[128];
  std::snprintf(detail, sizeof(detail),
                "%zu predictions, %zu mismatched, %zu failed",
                predicts, mismatched, rpc_failed);
  result->Check("cluster.remote_equals_local",
                predicts > 0 && mismatched == 0 && rpc_failed == 0, detail);

  std::printf("# cluster: %.0f passes of %d hours, %zu logs, %zu predictions; "
              "rpc p50 %.3f ms p90 %.3f ms p95 %.3f ms p99 %.3f ms; %.0f "
              "logs/s\n",
              passes, size.hours, logs_total, predicts,
              Percentile(rpc_scaled, 0.5), Percentile(rpc_scaled, 0.9),
              Percentile(rpc_scaled, 0.95), Percentile(rpc_scaled, 0.99),
              Median(pass_rates));
  PrintWall(speed, Percentile(WallMs(rpc_ms), 0.5),
            Percentile(WallMs(rpc_ms), 0.95), Median(raw_rates));
  if (!opts.trace) {
    result->Metric("setup_s", setup_s, "s");
    result->Metric("p50_ms", Percentile(rpc_scaled, 0.5), "ms");
    result->Metric("tail_ms", Percentile(rpc_scaled, 0.95), "ms");
    result->Metric("throughput_per_s", Median(pass_rates), "1/s");
    return 0;
  }
  const double ingest_rpc_ms = tracer.Total("net.ingest_rpc");
  const double barrier_ms = tracer.Total("server.barrier");
  result->Metric("net.ingest_rpc_us",
                 ingest_rpc_ms * 1e3 /
                     std::max<double>(tracer.Count("net.ingest_rpc"), 1),
                 "us");
  result->Metric("server.barrier_ms", tracer.MeanOf("server.barrier"), "ms");
  result->Metric("net.predict_overhead_ms", Mean(overhead_ms), "ms");
  result->Metric("net.bytes_sent", net_counts[0] / passes, "bytes");
  result->Metric("net.bytes_received", net_counts[1] / passes, "bytes");
  result->Metric("net.reconnects", net_counts[2], "count");
  result->Metric("net.rpc_errors", net_counts[3], "count");
  result->Metric("server.forwarded_ratio", forwarded / std::max(routed, 1.0),
                 "ratio");
  result->Metric("features.hit_ratio", hit / passes, "ratio");
  result->Metric("trace.overhead_ratio",
                 Median(untraced_rates) / std::max(Median(traced_rates), 1e-9) -
                     1.0,
                 "ratio");
  const double traced_write = ingest_rpc_ms + barrier_ms;
  std::printf("# layer shares of the traced write path (cluster):\n");
  std::printf("#   %-18s %9.1f ms  %5.1f%%\n", "net.ingest_rpc", ingest_rpc_ms,
              100.0 * ingest_rpc_ms / traced_write);
  std::printf("#   %-18s %9.1f ms  %5.1f%%\n", "server.barrier", barrier_ms,
              100.0 * barrier_ms / traced_write);
  return 0;
}

}  // namespace perfbench
