// serve: in-process audit traffic against one pinned BN snapshot, no
// ingest. HAG inference does the work; bn, storage, net and autograd
// stay idle once set-up is done.
//
//   open loop    Poisson arrivals at a fixed absolute rate through
//                PredictionServer::SubmitCallback (deadline = SLO),
//                latency from the intended arrival to the completion
//                callback, one exact sample per request.
//   closed loop  one client thread calling HandleBatch at batch 8;
//                capacity is the median of per-slice request rates.
//
// Targets are seeded shuffles of the whole population (TargetStream) and
// the prediction cache is off. Check: every served prediction equals a
// replay of its batch (same uids, same order) on the same snapshot; a
// batch of one is exactly Handle(uid).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "common.h"
#include "core/turbo.h"
#include "gnn/graph_batch.h"
#include "la/kernel_dispatch.h"
#include "server/bn_server.h"
#include "server/prediction_server.h"
#include "storage/sim_clock.h"
#include "util/check.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace turbo;

constexpr int kBatch = 8;
// Offered load of the open loop: an absolute constant, about a tenth of
// the closed-loop capacity of this stack on one x86 core, so queueing
// stays small and the latency is mostly service time. One batching
// worker shares the pinned CPU with the generator (see PinToLastCpus).
constexpr double kRatePerSecond = 80.0;
constexpr double kSloMs = 250.0;
constexpr int kWorkers = 1;
// Closed loop: host-speed samples between batches, at most this often.
constexpr double kSpeedEveryMs = 25.0;

struct ServeSize {
  int users = 600;
  int epochs = 4;
};

struct ServeStack {
  std::unique_ptr<core::PreparedData> data;
  std::unique_ptr<core::Hag> model;
  std::unique_ptr<server::BnServer> bn;
  std::unique_ptr<features::FeatureStore> features;
  /// Audit targets: every user with a live neighborhood at the pinned
  /// snapshot (see BuildStack).
  std::vector<UserId> targets;
};

server::PredictionConfig ServingConfig(obs::MetricsRegistry* reg) {
  server::PredictionConfig cfg;
  cfg.use_inference_path = true;
  cfg.cache_capacity = 0;
  cfg.metrics = reg;
  return cfg;
}

/// Datagen, PrepareData, HAG training, BN build, feature rows, and one
/// warm pass over every user (fills the feature store's stat cache the
/// way a long-running server holds it).
std::unique_ptr<ServeStack> BuildStack(const ServeSize& size) {
  auto s = std::make_unique<ServeStack>();
  // The served population, its graph and the model are a fixed fixture;
  // --seed varies the traffic (targets and arrival times) only, so runs
  // on different seeds measure the same system under equivalent load.
  auto scenario = datagen::ScenarioConfig::D1Like(size.users);
  core::PipelineConfig pipeline;
  // One pinned snapshot at the end of the stream serves the whole run;
  // coarse windows keep the recent cohort's edges live there.
  pipeline.bn.windows = {kDay, 7 * kDay, 30 * kDay};
  s->data = core::PrepareData(datagen::GenerateScenario(scenario), pipeline);
  s->model = std::make_unique<core::Hag>(BenchHagConfig(42));
  gnn::TrainConfig tcfg;
  tcfg.epochs = size.epochs;
  tcfg.lr = 1e-3f;
  tcfg.seed = 42;
  core::TrainAndScoreGnn(s->model.get(), *s->data, bn::SamplerConfig{},
                         tcfg);

  server::BnServerConfig bcfg;
  bcfg.bn = pipeline.bn;
  bcfg.num_users = size.users;
  bcfg.window_job_threads = 1;
  bcfg.snapshot_build_threads = 1;
  s->bn = std::make_unique<server::BnServer>(bcfg);
  s->bn->IngestBatch(s->data->dataset.logs);
  SimTime horizon = 0;
  for (const auto& u : s->data->dataset.users) {
    horizon = std::max(horizon, u.application_time);
  }
  s->bn->AdvanceTo(horizon + kHour);

  s->features = std::make_unique<features::FeatureStore>(
      features::FeatureStoreConfig{}, &s->bn->logs());
  const auto& profiles = s->data->dataset.profile_features;
  for (UserId u = 0; u < static_cast<UserId>(size.users); ++u) {
    const float* row = profiles.row(u);
    s->features->PutProfile(
        u, std::vector<float>(row, row + profiles.cols()));
  }
  // Users whose edges all expired sample a one-node subgraph that costs
  // ~0.15 ms; half the population is like that, and a p50 over them
  // would measure thread wake-ups instead of the serving stack. The
  // audit traffic targets everyone else.
  for (UserId u = 0; u < static_cast<UserId>(size.users); ++u) {
    if (s->bn->SampleSubgraph(u).nodes.size() > 1) s->targets.push_back(u);
  }
  TURBO_CHECK_GT(s->targets.size(), static_cast<size_t>(kBatch));
  obs::MetricsRegistry reg;
  server::PredictionServer warm(ServingConfig(&reg), s->bn.get(),
                                s->features.get(), s->model.get(),
                                &s->data->scaler);
  std::vector<UserId> batch;
  for (UserId u = 0; u < static_cast<UserId>(size.users); ++u) {
    batch.push_back(u);
    if (batch.size() == kBatch) {
      warm.HandleBatch(batch);
      batch.clear();
    }
  }
  if (!batch.empty()) warm.HandleBatch(batch);
  return s;
}

struct Served {
  UserId uid = 0;
  server::PredictionResponse resp;
};

/// Replays every executed batch on `checker` and compares bit for bit.
/// Batches are recovered from the responses: HandleBatch numbers its
/// requests contiguously, so sorting by request id and cutting at
/// batch_size restores each batch's uids in execution order.
void CheckServed(std::vector<Served> served, uint64_t version,
                 server::PredictionServer* checker, Result* result,
                 const char* name) {
  std::sort(served.begin(), served.end(), [](const Served& a, const Served& b) {
    return a.resp.request_id < b.resp.request_id;
  });
  size_t batches = 0, mismatches = 0, bad_version = 0;
  const bool perturb = result->Breaking(name);
  for (size_t i = 0; i < served.size();) {
    const size_t n = static_cast<size_t>(served[i].resp.batch_size);
    if (n == 0 || i + n > served.size() ||
        served[i + n - 1].resp.request_id !=
            served[i].resp.request_id + n - 1) {
      ++mismatches;  // a batch whose requests are not all present
      ++i;
      continue;
    }
    std::vector<UserId> uids;
    for (size_t j = 0; j < n; ++j) uids.push_back(served[i + j].uid);
    const auto replay = n == 1 ? std::vector<server::PredictionResponse>{
                                     checker->Handle(uids[0])}
                               : checker->HandleBatch(uids);
    for (size_t j = 0; j < n; ++j) {
      const double expect =
          replay[j].fraud_probability + (perturb && batches == 0 ? 1e-9 : 0);
      if (served[i + j].resp.fraud_probability != expect) ++mismatches;
      if (served[i + j].resp.snapshot_version != version) ++bad_version;
    }
    ++batches;
    i += n;
  }
  char detail[160];
  std::snprintf(detail, sizeof(detail),
                "%zu requests in %zu batches, %zu mismatched, %zu off-snapshot",
                served.size(), batches, mismatches, bad_version);
  result->Check(name, !served.empty() && mismatches == 0 && bad_version == 0,
                detail);
}

struct OpenLoopOut {
  std::vector<Timed> latency_ms;  // served, from intended arrival
  std::vector<double> late_ms;    // generator lateness per submission
  std::vector<Served> served;
  size_t offered = 0, shed = 0, rejected = 0;
  double batch_size_mean = 0.0;
};

OpenLoopOut RunOpenLoop(ServeStack* s, uint64_t seed, double seconds,
                        HostSpeed* speed) {
  // The schedule and the targets are fixed before the clock starts.
  Rng rng(MixSeeds(seed, 0x0be1));
  std::vector<double> offset_ms;
  for (double t = rng.NextExponential(1e3 / kRatePerSecond); t < seconds * 1e3;
       t += rng.NextExponential(1e3 / kRatePerSecond)) {
    offset_ms.push_back(t);
  }
  const size_t n = offset_ms.size();
  TargetStream stream(MixSeeds(seed, 0x0be2), s->targets);
  std::vector<UserId> targets(n);
  for (auto& u : targets) u = stream.Next();

  obs::MetricsRegistry reg;
  server::PredictionServer srv(ServingConfig(&reg), s->bn.get(),
                               s->features.get(), s->model.get(),
                               &s->data->scaler);
  server::BatchingConfig bcfg;
  bcfg.max_batch_size = kBatch;
  bcfg.workers = kWorkers;
  bcfg.max_wait_ms = 0.0;
  bcfg.max_queue = 4096;
  srv.StartBatching(bcfg);

  std::vector<double> done_ms(n, 0.0);
  std::vector<server::PredictionResponse> resp(n);
  std::atomic<size_t> completed{0};
  OpenLoopOut out;
  out.offered = n;
  out.late_ms.reserve(n);
  size_t submitted = 0;
  // Between requests the pinned CPU runs host-speed samples at idle
  // priority instead of idling (see IdleSampler).
  IdleSampler sampler(speed);
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  for (size_t i = 0; i < n; ++i) {
    const auto intended =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::milli>(offset_ms[i]));
    std::this_thread::sleep_until(intended);
    out.late_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - intended)
            .count());
    const bool admitted = srv.SubmitCallback(
        targets[i], intended + std::chrono::milliseconds(
                                   static_cast<int>(kSloMs)),
        [&, i, intended](const server::PredictionResponse& r) {
          done_ms[i] = std::chrono::duration<double, std::milli>(
                           Clock::now() - intended)
                           .count();
          resp[i] = r;
          completed.fetch_add(1, std::memory_order_release);
        });
    if (admitted) {
      ++submitted;
    } else {
      ++out.rejected;
    }
  }
  while (completed.load(std::memory_order_acquire) < submitted) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  srv.StopBatching();
  sampler.Stop();

  double batch_sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (resp[i].shed) continue;
    out.latency_ms.push_back(
        {t0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double, std::milli>(offset_ms[i])),
         done_ms[i]});
    out.served.push_back({targets[i], resp[i]});
    batch_sum += resp[i].batch_size;
  }
  out.shed = n - out.served.size() - out.rejected;
  out.batch_size_mean = out.served.empty() ? 0 : batch_sum / out.served.size();
  return out;
}

struct ClosedLoopOut {
  std::vector<std::vector<Timed>> slices;  // HandleBatch wall per batch
  std::vector<Served> sample;  // batches kept for the replay check
  size_t requests = 0;
};

/// One client thread, HandleBatch at batch 8, for `seconds` (at least
/// two slices), with host-speed samples between batches. A slice is one
/// pass over the target pool, so every slice does the same work;
/// capacity is the median slice rate. Every 16th batch is kept for the
/// check.
ClosedLoopOut RunClosedLoop(ServeStack* s, uint64_t seed, double seconds,
                            HostSpeed* speed) {
  obs::MetricsRegistry reg;
  server::PredictionServer srv(ServingConfig(&reg), s->bn.get(),
                               s->features.get(), s->model.get(),
                               &s->data->scaler);
  TargetStream stream(MixSeeds(seed, 0xc105), s->targets);
  ClosedLoopOut out;
  const size_t slice_batches = std::max<size_t>(s->targets.size() / kBatch, 1);
  const auto start = Clock::now();
  size_t batches = 0;
  std::vector<UserId> uids(kBatch);
  while (out.slices.size() < 2 || MillisSince(start) < seconds * 1e3) {
    out.slices.emplace_back();
    for (size_t b = 0; b < slice_batches; ++b) {
      for (auto& u : uids) u = stream.Next();
      speed->SampleEvery(kSpeedEveryMs);
      const auto b0 = Clock::now();
      const auto resp = srv.HandleBatch(uids);
      out.slices.back().push_back({b0, MillisSince(b0)});
      if (batches++ % 16 == 0) {
        for (int j = 0; j < kBatch; ++j) {
          out.sample.push_back({uids[j], resp[j]});
        }
      }
    }
    out.requests += slice_batches * kBatch;
  }
  return out;
}

/// The traced closed loop: HandleBatch's stages called one by one on
/// the same targets, then HandleBatch itself for the layer-sum check.
/// Batches alternate untraced and traced, so the stages' wall on each
/// gives the tracing overhead of the same loop. Traced batches also
/// replay la::dispatch on the batch's HAG shapes.
void RunDecomposed(ServeStack* s, uint64_t seed, double seconds,
                   Tracer* tracer, Result* result) {
  obs::MetricsRegistry reg;
  server::PredictionServer srv(ServingConfig(&reg), s->bn.get(),
                               s->features.get(), s->model.get(),
                               &s->data->scaler);
  TargetStream stream(MixSeeds(seed, 0xc105), s->targets);
  Rng wrng(MixSeeds(seed, 0x1a));
  const auto& hidden = s->model->config().hidden;
  const int att = s->model->config().attention_dim;
  std::vector<double> nodes, modeled, gemm_flops, spmm_bytes;
  size_t mismatches = 0;
  std::vector<double> stages_ms[2];  // untraced, traced
  size_t checked = 0;
  const auto start = Clock::now();
  std::vector<UserId> uids(kBatch);
  for (int iter = 0; iter < 2 || MillisSince(start) < seconds * 1e3;
       ++iter) {
    Tracer* tr = iter % 2 == 1 ? tracer : nullptr;
    for (auto& u : uids) u = stream.Next();
    const auto s0 = Clock::now();
    const SimTime as_of = s->bn->now();
    bn::Subgraph sg;
    {
      Span sp(tr, "bn.sample");
      sg = s->bn->SampleSubgraph(uids);
    }
    nodes.push_back(static_cast<double>(sg.nodes.size()));
    la::Matrix raw;
    storage::SimClock clock;
    {
      Span sp(tr, "features.fetch");
      for (size_t i = 0; i < sg.nodes.size(); ++i) {
        auto row = s->features->GetFeatures(sg.nodes[i], as_of, &clock);
        if (raw.empty()) raw = la::Matrix(sg.nodes.size(), row.size());
        std::copy(row.begin(), row.end(), raw.row(i));
      }
    }
    modeled.push_back(clock.ElapsedMillis());
    la::Matrix scaled;
    {
      Span sp(tr, "ml.scale");
      scaled = s->data->scaler.Transform(raw);
    }
    gnn::GraphBatch batch;
    {
      Span sp(tr, "gnn.graph_batch");
      bn::Subgraph local = sg;
      for (size_t i = 0; i < local.nodes.size(); ++i) {
        local.nodes[i] = static_cast<UserId>(i);
      }
      batch = gnn::MakeGraphBatch(local, scaled);
      batch.global_ids = sg.nodes;
    }
    std::vector<double> probs;
    {
      Span sp(tr, "gnn.forward");
      probs = gnn::GnnTrainer::PredictTargetsInference(*s->model, batch);
    }
    stages_ms[tr != nullptr].push_back(MillisSince(s0));
    std::vector<server::PredictionResponse> resp;
    {
      Span sp(tr, "serve.handle_batch");
      resp = srv.HandleBatch(uids);
    }
    for (int j = 0; j < kBatch; ++j) {
      double expect = probs[sg.local.at(uids[j])];
      if (j == 0 && result->Breaking("serve.decomposed_equals_batch")) {
        expect += 1e-9;
      }
      if (resp[j].fraud_probability != expect) ++mismatches;
    }
    ++checked;
    if (tr == nullptr) continue;
    // la::dispatch replayed on this batch's HAG shapes: per edge type
    // and SAO layer one SpMM over the type adjacency and four GEMMs
    // (self, neighbor, and the two gate projections).
    const size_t n = batch.num_nodes();
    int d_in = static_cast<int>(batch.features.cols());
    for (int d_out : hidden) {
      la::Matrix h = la::Matrix::Glorot(n, d_in, &wrng);
      la::Matrix w = la::Matrix::Glorot(d_in, d_out, &wrng);
      la::Matrix wa = la::Matrix::Glorot(d_in, att, &wrng);
      for (int r = 0; r < kNumEdgeTypes; ++r) {
        const auto& adj = batch.type_mean[r];
        {
          Span sp(tr, "la.spmm");
          la::Matrix y = la::dispatch::Spmm(adj, h);
        }
        spmm_bytes.push_back(
            static_cast<double>(adj.nnz()) * (4 + 4 + 4.0 * d_in) +
            static_cast<double>(n) * d_in * 4.0 + (n + 1) * 4.0);
        Span sp(tr, "la.gemm");
        for (int k = 0; k < 2; ++k) {
          la::Matrix y = la::dispatch::MatMul(h, w);
          la::Matrix z = la::dispatch::MatMul(h, wa);
        }
        gemm_flops.push_back(2.0 * 2.0 * n * d_in * (d_out + att));
      }
      d_in = d_out;
    }
  }
  Tracer* tr = tracer;
  const double batches = static_cast<double>(tr->Count("gnn.forward"));
  const double per_batch = 1.0 / std::max(batches, 1.0);
  const double layers = tr->Total("bn.sample") + tr->Total("features.fetch") +
                        tr->Total("ml.scale") + tr->Total("gnn.graph_batch") +
                        tr->Total("gnn.forward");
  result->Metric("bn.sample_ms", tr->Total("bn.sample") * per_batch, "ms");
  result->Metric("bn.subgraph_nodes", Mean(nodes), "count");
  result->Metric("features.fetch_ms", tr->Total("features.fetch") * per_batch,
                 "ms");
  result->Metric("features.modeled_ms", Mean(modeled), "ms");
  result->Metric("features.hit_ratio", s->features->cache_hit_rate(), "ratio");
  result->Metric("ml.scale_ms", tr->Total("ml.scale") * per_batch, "ms");
  result->Metric("gnn.graph_batch_ms",
                 tr->Total("gnn.graph_batch") * per_batch, "ms");
  result->Metric("gnn.forward_ms", tr->Total("gnn.forward") * per_batch, "ms");
  result->Metric("serve.handle_batch_ms",
                 tr->Total("serve.handle_batch") * per_batch, "ms");
  result->Metric("serve.layer_sum_ratio",
                 layers / std::max(tr->Total("serve.handle_batch"), 1e-9),
                 "ratio");
  result->Metric("la.gemm_ms", tr->Total("la.gemm") * per_batch, "ms");
  result->Metric("la.gemm_gflops",
                 Sum(gemm_flops) / 1e6 / std::max(tr->Total("la.gemm"), 1e-9),
                 "GFLOP/s");
  result->Metric("la.spmm_ms", tr->Total("la.spmm") * per_batch, "ms");
  result->Metric("la.spmm_gbps",
                 Sum(spmm_bytes) / 1e6 / std::max(tr->Total("la.spmm"), 1e-9),
                 "GB/s");
  result->Metric("trace.overhead_ratio",
                 Median(stages_ms[1]) / std::max(Median(stages_ms[0]), 1e-9) -
                     1.0,
                 "ratio");
  char detail[96];
  std::snprintf(detail, sizeof(detail), "%zu batches, %zu mismatched",
                checked, mismatches);
  result->Check("serve.decomposed_equals_batch",
                checked > 0 && mismatches == 0, detail);
  std::printf("# layer shares of HandleBatch (serve, per batch of %d):\n",
              kBatch);
  for (const char* name : {"bn.sample", "features.fetch", "ml.scale",
                           "gnn.graph_batch", "gnn.forward"}) {
    std::printf("#   %-18s %7.3f ms  %5.1f%%\n", name,
                tr->Total(name) * per_batch,
                100.0 * tr->Total(name) /
                    std::max(tr->Total("serve.handle_batch"), 1e-9));
  }
}

}  // namespace

int RunServe(const Options& opts, Result* result) {
  ServeSize size;
  if (opts.tiny) size = {200, 1};
  PrintEnvironment(opts, {{"la_kernel_threads", "1"},
                          {"window_job_threads", "1"},
                          {"snapshot_build_threads", "1"},
                          {"batching_workers", std::to_string(kWorkers)},
                          {"open_loop_rate_rps",
                           std::to_string(kRatePerSecond)},
                          {"users", std::to_string(size.users)}});

  std::unique_ptr<ServeStack> stack;
  HostSpeed speed;
  const double setup_s = MedianSetupSeconds(
      &speed,
      [&] {
        stack.reset();
        ReleaseFreedMemory();
      },
      [&] { stack = BuildStack(size); }, opts.MinSetups());

  obs::MetricsRegistry check_reg;
  server::PredictionServer checker(ServingConfig(&check_reg), stack->bn.get(),
                                   stack->features.get(), stack->model.get(),
                                   &stack->data->scaler);
  const uint64_t version = stack->bn->snapshot_version();

  const double open_s = opts.seconds * (opts.trace ? 0.4 : 0.8);
  OpenLoopOut open = RunOpenLoop(stack.get(), opts.seed, open_s, &speed);
  result->Attempt(open.offered, open.shed + open.rejected);
  const double closed_s = opts.seconds * 0.2;
  ClosedLoopOut closed =
      RunClosedLoop(stack.get(), opts.seed, closed_s, &speed);
  result->Attempt(closed.requests);
  speed.Sample();

  CheckServed(open.served, version, &checker, result, "serve.open_loop_replay");
  CheckServed(closed.sample, version, &checker, result,
              "serve.closed_loop_replay");

  // Latencies and slice rates rescaled to the reference host.
  const std::vector<double> latency = Rescaled(speed, open.latency_ms);
  std::vector<double> slice_rps, raw_rps;
  for (const auto& slice : closed.slices) {
    raw_rps.push_back(slice.size() * kBatch / (Sum(WallMs(slice)) / 1e3));
    slice_rps.push_back(slice.size() * kBatch /
                        (Sum(Rescaled(speed, slice)) / 1e3));
  }
  const std::vector<double> raw_latency = WallMs(open.latency_ms);
  PrintWall(speed, Percentile(raw_latency, 0.5),
            Percentile(raw_latency, 0.95), Median(raw_rps));
  std::printf("# serve: %zu offered at %.0f/s, %zu served, p50 %.3f ms, "
              "p90 %.3f ms, p95 %.3f ms, p99 %.3f ms, mean batch %.2f; "
              "closed loop %zu req in %zu slices, %.0f req/s\n",
              open.offered, kRatePerSecond, open.served.size(),
              Percentile(latency, 0.5), Percentile(latency, 0.9),
              Percentile(latency, 0.95), Percentile(latency, 0.99),
              open.batch_size_mean, closed.requests, slice_rps.size(),
              Median(slice_rps));
  if (!opts.trace) {
    result->Metric("setup_s", setup_s, "s");
    result->Metric("p50_ms", Percentile(latency, 0.5), "ms");
    result->Metric("tail_ms", Percentile(latency, 0.95), "ms");
    result->Metric("throughput_per_s", Median(slice_rps), "1/s");
    return 0;
  }
  result->Metric("server.batch_size_mean", open.batch_size_mean, "count");
  result->Metric("server.shed", static_cast<double>(open.shed), "count");
  result->Metric("server.rejected", static_cast<double>(open.rejected),
                 "count");
  result->Metric("loadgen.late_p99_ms", Percentile(open.late_ms, 0.99), "ms");
  Tracer tracer;
  RunDecomposed(stack.get(), opts.seed, opts.seconds * 0.4, &tracer, result);
  return 0;
}

}  // namespace perfbench
