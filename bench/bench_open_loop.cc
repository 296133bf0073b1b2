// Open-loop load study: what the serving stack does when arrivals
// outpace service (ROADMAP item 3, the saturation story behind the
// paper's §V real-time latency claim).
//
// Closed-loop benches cannot see overload — the client waits for each
// response, so offered load tracks capacity by construction. Here a
// pre-generated Poisson schedule replays datagen traffic against ingest
// (BnServer's bounded MPSC ring, drained by a writer thread) and
// prediction (deadline-aware coalescing queue) CONCURRENTLY, at rates
// swept around the measured closed-loop capacity. Latency is measured
// from each request's intended arrival time (coordinated-omission
// safe), and every request carries deadline = intended arrival +
// --slo_ms, so past-deadline work is shed before it spends compute.
//
// Acceptance (the ISSUE 7 bar, enforced by the exit code):
//  * below saturation (gated rates): p99 within the SLO, zero sheds,
//    zero admission rejections. Advisory (printed, not fatal) on a
//    1-hardware-thread box, where the generator, ingest drain, and
//    worker share one core and absolute tail latency measures scheduler
//    interference as much as the stack;
//  * above saturation: goodput (in-deadline completions/s) stays at
//    >= 80% of the peak across the sweep — shedding and backpressure
//    absorb the excess instead of collapsing into queueing death.
//    Ratio-based, so it holds on any core count and is always fatal.
//
// Writes BENCH_load.json (consumed by scripts/check_bench_regression.py;
// `hardware_threads` is recorded so the gate skips itself on a
// different core count, and multi-worker cells carry /tN/ labels so the
// single-core parallel-cell skip drops them on a 1-core runner).
// `p99_headroom` is SLO/p99 clamped to 2.0: deep-sub-SLO noise
// saturates at the clamp while a p99 creeping toward the SLO pulls the
// gated value down.
//
//   ./bench_open_loop [--users=N] [--epochs=E] [--duration_s=D]
//                     [--slo_ms=S] [--ingest_factor=F]
//                     [--out=BENCH_load.json]
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "obs/metrics.h"
#include "server/load_gen.h"
#include "server/prediction_server.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace turbo::benchx {
namespace {

struct ServingStack {
  std::unique_ptr<core::PreparedData> data;
  std::unique_ptr<core::Hag> model;
  std::unique_ptr<server::BnServer> bn;
  std::unique_ptr<features::FeatureStore> features;
  std::vector<UserId> pool;  // request targets, cycled by every run
};

ServingStack BuildStack(int users, const BenchScale& scale,
                        size_t ingest_ring) {
  ServingStack s;
  core::PipelineConfig pipeline;
  // One pinned snapshot at the end of the stream serves the whole
  // sweep; coarse windows keep the recent cohort's edges live there.
  pipeline.bn.windows = {kDay, 7 * kDay, 30 * kDay};
  s.data = core::PrepareData(
      datagen::GenerateScenario(datagen::ScenarioConfig::D1Like(users)),
      pipeline);
  s.model = std::make_unique<core::Hag>(MakeHagConfig(scale, 42));
  core::TrainAndScoreGnn(s.model.get(), *s.data, bn::SamplerConfig{},
                         MakeTrainConfig(scale, 42));

  server::BnServerConfig bcfg;
  bcfg.bn = pipeline.bn;
  bcfg.num_users = users;
  bcfg.ingest_queue_capacity = ingest_ring;
  s.bn = std::make_unique<server::BnServer>(bcfg);
  s.bn->IngestBatch(s.data->dataset.logs);
  SimTime horizon = 0;
  for (const auto& u : s.data->dataset.users) {
    horizon = std::max(horizon, u.application_time);
  }
  s.bn->AdvanceTo(horizon + kHour);

  s.features = std::make_unique<features::FeatureStore>(
      features::FeatureStoreConfig{}, &s.bn->logs());
  for (UserId u = 0; u < static_cast<UserId>(users); ++u) {
    const float* row = s.data->dataset.profile_features.row(u);
    s.features->PutProfile(
        u, std::vector<float>(
               row, row + s.data->dataset.profile_features.cols()));
  }
  for (UserId u = 0; u < static_cast<UserId>(users); ++u) {
    s.features->GetFeatures(u, s.bn->now());
  }
  for (UserId u : s.data->test_uids) {
    if (s.data->dataset.users[u].application_time + 14 * kDay >= horizon) {
      s.pool.push_back(u);
    }
  }
  if (s.pool.size() < 8) s.pool = s.data->test_uids;
  TURBO_CHECK_GT(s.pool.size(), 0u);
  return s;
}

/// Closed-loop capacity: requests/s of one client thread running
/// batched inference flat out — the reference the open-loop
/// rate sweep is anchored to.
double MeasureCapacity(ServingStack* s, size_t requests) {
  obs::MetricsRegistry reg;
  server::PredictionConfig pcfg;
  pcfg.metrics = &reg;
  server::PredictionServer srv(pcfg, s->bn.get(), s->features.get(),
                               s->model.get(), &s->data->scaler);
  constexpr int kBatch = 8;
  Stopwatch sw;
  size_t done = 0;
  while (done < requests) {
    std::vector<UserId> uids(kBatch);
    for (int j = 0; j < kBatch; ++j) {
      uids[j] = s->pool[(done + j) % s->pool.size()];
    }
    srv.HandleBatch(uids);
    done += kBatch;
  }
  return static_cast<double>(done) / std::max(sw.ElapsedSeconds(), 1e-9);
}

struct LoadRun {
  double rate_x = 0.0;  // multiple of measured capacity
  int workers = 1;
  bool gate = false;  // sub-saturation cell the CI job gates on
  double rate_rps = 0.0;
  server::LoadGenResult res;
  double p99_headroom = 0.0;
};

LoadRun RunOne(ServingStack* s, double rate_x, int workers, bool gate,
               double capacity_rps, double duration_s, double slo_ms,
               double ingest_factor) {
  LoadRun run;
  run.rate_x = rate_x;
  run.workers = workers;
  run.gate = gate;
  run.rate_rps = rate_x * capacity_rps;

  obs::MetricsRegistry reg;
  server::PredictionConfig pcfg;
  pcfg.metrics = &reg;
  server::PredictionServer srv(pcfg, s->bn.get(), s->features.get(),
                               s->model.get(), &s->data->scaler);

  server::LoadGenConfig lcfg;
  lcfg.prediction_rate = run.rate_rps;
  lcfg.ingest_rate = ingest_factor * run.rate_rps;
  lcfg.duration_s = duration_s;
  lcfg.slo_ms = slo_ms;
  lcfg.seed = 7;
  lcfg.batching.max_batch_size = 8;
  lcfg.batching.workers = workers;
  lcfg.batching.max_wait_ms = 0.5;
  // Queue cap: half an SLO of work at the measured SERVICE rate, so
  // queueing delay alone can never eat the whole latency budget — a
  // deeper queue only manufactures guaranteed-late work under
  // sustained overload (this is what the first smoke run showed:
  // capping at 2 SLOs of *offered* load let every served request
  // finish just past its deadline).
  lcfg.batching.max_queue = static_cast<size_t>(std::clamp(
      capacity_rps * slo_ms / 2000.0, 16.0, 2048.0));

  server::OpenLoopLoadGen gen(lcfg, &srv, s->bn.get(), &reg);
  run.res = gen.Run(s->pool, s->data->dataset.logs);
  // Clamp at 2.0: any p99 comfortably inside half the SLO saturates
  // the gated value, so deep-sub-SLO jitter cannot flake the gate,
  // while a p99 past slo/2 pulls the value (and the gate) down.
  run.p99_headroom =
      std::min(slo_ms / std::max(run.res.p99_ms, 1e-9), 2.0);
  return run;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  auto scale = BenchScale::FromFlags(flags);
  scale.epochs = flags.GetInt("epochs", 4);
  const int users = flags.GetInt("users", 600);
  const double duration_s = flags.GetDouble("duration_s", 2.5);
  const double slo_ms = flags.GetDouble("slo_ms", 60.0);
  const double ingest_factor = flags.GetDouble("ingest_factor", 4.0);
  const size_t ingest_ring =
      static_cast<size_t>(flags.GetInt("ingest_ring", 1024));
  const std::string out = flags.GetString("out", "BENCH_load.json");
  const int hw = static_cast<int>(std::thread::hardware_concurrency());

  std::printf("== open-loop load: Poisson arrivals vs admission control ==\n");
  std::printf("users=%d, duration=%.1fs/run, slo=%.0fms, %d hardware "
              "threads\n\n",
              users, duration_s, slo_ms, hw);
  ServingStack stack = BuildStack(users, scale, ingest_ring);

  const double capacity_rps =
      MeasureCapacity(&stack, std::max<size_t>(160, stack.pool.size()));
  std::printf("closed-loop capacity (1 thread, batch 8): %.1f req/s\n\n",
              capacity_rps);

  std::vector<LoadRun> runs;
  // Sub-saturation cells: the SLO gate. Overload cell: the goodput
  // floor. The workers=2 cell exercises multi-worker draining; its /t2/
  // labels are skipped by the regression gate on a 1-core box.
  // Gated rates sit well below effective saturation: the closed-loop
  // capacity is measured at a full batch of 8 with no co-running
  // ingest/generator threads, so the open-loop stack saturates at
  // roughly half of it (partial batches + core sharing).
  runs.push_back(RunOne(&stack, 0.15, 1, true, capacity_rps, duration_s,
                        slo_ms, ingest_factor));
  runs.push_back(RunOne(&stack, 0.3, 1, true, capacity_rps, duration_s,
                        slo_ms, ingest_factor));
  runs.push_back(RunOne(&stack, 0.3, 2, true, capacity_rps, duration_s,
                        slo_ms, ingest_factor));
  runs.push_back(RunOne(&stack, 2.0, 1, false, capacity_rps, duration_s,
                        slo_ms, ingest_factor));

  double peak_goodput = 0.0;
  for (const auto& r : runs) {
    peak_goodput = std::max(peak_goodput, r.res.goodput_rps);
  }

  TablePrinter table({"rate", "workers", "offered", "goodput/s", "frac",
                      "p50/p99/p999 (ms)", "shed", "rejected",
                      "ingest off/rej"});
  bool slo_ok = true;
  for (const auto& r : runs) {
    table.AddRow(
        {StrFormat("%.2fx (%.0f/s)", r.rate_x, r.rate_rps),
         std::to_string(r.workers), std::to_string(r.res.offered),
         StrFormat("%.1f", r.res.goodput_rps),
         StrFormat("%.3f", r.res.goodput_frac),
         StrFormat("%.1f/%.1f/%.1f", r.res.p50_ms, r.res.p99_ms,
                   r.res.p999_ms),
         std::to_string(r.res.shed), std::to_string(r.res.rejected),
         StrFormat("%zu/%zu", r.res.ingest_offered,
                   r.res.ingest_rejected)});
    if (r.gate && r.workers == 1) {
      if (r.res.p99_ms > slo_ms || r.res.shed + r.res.rejected > 0) {
        slo_ok = false;
      }
    }
  }
  table.Print();

  const LoadRun& overload = runs.back();
  const double overload_ratio =
      overload.res.goodput_rps / std::max(peak_goodput, 1e-9);
  // One core cannot isolate the generator + drain threads from the
  // worker, so a scheduler stall lands in the tail; the absolute-SLO
  // check is advisory there. CI runners are multi-core, so the bar is
  // enforced where it is meaningful.
  const bool slo_fatal = hw >= 2;
  std::printf("\nsub-saturation SLO (p99 <= %.0fms, zero shed): %s%s\n",
              slo_ms, slo_ok ? "OK" : "VIOLATED",
              slo_fatal ? "" : " (advisory: 1 hardware thread)");
  std::printf("overload goodput: %.1f/s = %.0f%% of peak %.1f/s "
              "(floor 80%%): %s\n",
              overload.res.goodput_rps, 100.0 * overload_ratio,
              peak_goodput, overload_ratio >= 0.8 ? "OK" : "COLLAPSED");

  std::ofstream f(out);
  f << "{\n"
    << "  \"bench\": \"open_loop\",\n"
    << "  \"users\": " << users << ",\n"
    << "  \"hardware_threads\": " << hw << ",\n"
    << "  \"duration_s\": " << duration_s << ",\n"
    << "  \"slo_ms\": " << slo_ms << ",\n"
    << "  \"capacity_rps\": " << capacity_rps << ",\n"
    << "  \"overload_goodput_ratio\": " << overload_ratio << ",\n"
    << "  \"runs\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i];
    f << "    {\"rate_x\": " << r.rate_x
      << ", \"workers\": " << r.workers
      << ", \"gate\": " << (r.gate ? "true" : "false")
      << ", \"rate_rps\": " << r.rate_rps
      << ", \"offered\": " << r.res.offered
      << ", \"served\": " << r.res.served
      << ", \"shed\": " << r.res.shed
      << ", \"rejected\": " << r.res.rejected
      << ", \"in_deadline\": " << r.res.in_deadline
      << ", \"goodput_rps\": " << r.res.goodput_rps
      << ", \"goodput_frac\": " << r.res.goodput_frac
      << ", \"p50_ms\": " << r.res.p50_ms
      << ", \"p99_ms\": " << r.res.p99_ms
      << ", \"p999_ms\": " << r.res.p999_ms
      << ", \"max_ms\": " << r.res.max_ms
      << ", \"p99_headroom\": " << r.p99_headroom
      << ", \"ingest_offered\": " << r.res.ingest_offered
      << ", \"ingest_rejected\": " << r.res.ingest_rejected
      << ", \"ingest_applied\": " << r.res.ingest_applied
      << ", \"ingest_p99_ms\": " << r.res.ingest_p99_ms << "}"
      << (i + 1 < runs.size() ? ",\n" : "\n");
  }
  f << "  ]\n"
    << "}\n";
  std::printf("wrote %s\n", out.c_str());
  return ((slo_ok || !slo_fatal) && overload_ratio >= 0.8) ? 0 : 1;
}

}  // namespace
}  // namespace turbo::benchx

int main(int argc, char** argv) { return turbo::benchx::Main(argc, argv); }
