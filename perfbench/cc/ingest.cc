// ingest: one writer replays a fixed, community-structured behavior-log
// stream (its users renamed by the seed) into a BnServer, one sim-hour at a time (Ingest every log of
// the hour, then AdvanceTo the hour boundary). Default windows, WAL on
// with Fsync::kNever (the page cache, not the disk, so the run measures
// the program). No predictions: la, gnn, net and autograd stay idle.
//
// One pass = fresh server, replay of the first three quarters of the
// stream, a checkpoint (outside the timed loop), replay of the rest,
// then Recover (checkpoint chain + WAL tail) into another fresh server,
// checked bit-identical to the live one. Passes repeat until the run's
// time is spent.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "common.h"
#include "server/bn_server.h"

namespace perfbench {
namespace {

using namespace turbo;

// The log stream is a fixed fixture; --seed relabels its users (see
// RelabelUsers), which gives each seed an isomorphic stream.
constexpr uint64_t kStreamSeed = 42;
constexpr double kSpeedEveryMs = 50.0;

struct IngestSize {
  int users = 8000;
  size_t logs = 320000;
  int hours = 120;
};

server::BnServerConfig ServerConfig(const IngestSize& size,
                                    const std::string& wal_dir,
                                    obs::MetricsRegistry* reg) {
  server::BnServerConfig cfg;
  cfg.num_users = size.users;
  cfg.snapshot_refresh = kHour;
  cfg.window_job_threads = 1;
  cfg.snapshot_build_threads = 1;
  cfg.metrics = reg;
  cfg.wal_dir = wal_dir;
  cfg.wal.fsync = storage::WalOptions::Fsync::kNever;
  return cfg;
}

/// Bit-level equality of clock, job count, logs, every edge weight and
/// stamp, and the published snapshot version.
bool SameState(const server::BnServer& a, const server::BnServer& b,
               int users, bool perturb, std::string* why) {
  if (a.now() != b.now() || a.jobs_run() != b.jobs_run() ||
      a.logs().size() != b.logs().size() ||
      a.snapshot_version() != b.snapshot_version()) {
    *why = "clock, jobs, logs or snapshot version differ";
    return false;
  }
  size_t edges = 0;
  for (int t = 0; t < kNumEdgeTypes; ++t) {
    if (a.edges().NumEdges(t) != b.edges().NumEdges(t)) {
      *why = "edge count differs";
      return false;
    }
    for (UserId u = 0; u < static_cast<UserId>(users); ++u) {
      const auto& an = a.edges().Neighbors(t, u);
      const auto& bn = b.edges().Neighbors(t, u);
      if (an.size() != bn.size()) {
        *why = "neighbor count differs";
        return false;
      }
      for (const auto& [v, e] : an) {
        auto it = bn.find(v);
        const double expect = perturb && edges == 0 ? e.weight * 2 : e.weight;
        ++edges;
        if (it == bn.end() || it->second.weight != expect ||
            it->second.last_update != e.last_update) {
          *why = "edge weight or stamp differs";
          return false;
        }
      }
    }
  }
  *why = std::to_string(edges) + " edge entries identical";
  return edges > 0;
}

struct PassOut {
  std::vector<Timed> hours;  // Ingest + AdvanceTo wall per sim-hour
  double checkpoint_ms = 0.0;
  double recover_ms = 0.0;
  bool identical = false;
  std::string detail;
  // Registry readings of the live server after the pass.
  double window_job_ms = 0, publish_ms = 0, edge_updates = 0;
  double incrementals = 0, full_rebuilds = 0, touched_rows = 0;
  double bucket_cache_bytes = 0, snapshot_bytes = 0, wal_bytes = 0;
  double wal_records = 0, checkpoint_bytes = 0, replayed_records = 0;
};

/// One pass; `recover` adds the Recover + bit-identity check after it.
PassOut RunPass(const IngestSize& size, const BehaviorLogList& logs,
                const std::string& dir, Tracer* tr, HostSpeed* speed,
                bool recover, bool check_perturb, std::vector<Timed>* hour_ms,
                std::vector<Timed>* day_ms) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  PassOut out;
  obs::MetricsRegistry reg;
  server::BnServer live(ServerConfig(size, dir, &reg));
  const int ckpt_hour = size.hours * 3 / 4;
  size_t i = 0;
  auto replay = [&](int from_hour, int to_hour) {
    for (int h = from_hour; h <= to_hour; ++h) {
      speed->SampleEvery(kSpeedEveryMs);  // between hours, untimed
      const auto t0 = Clock::now();
      const SimTime end = static_cast<SimTime>(h) * kHour;
      while (i < logs.size() && logs[i].time < end) {
        Span sp(tr, "server.ingest");
        live.Ingest(logs[i]);
        ++i;
      }
      const auto a0 = Clock::now();
      {
        Span sp(tr, "bn.advance");
        live.AdvanceTo(end);
      }
      (end % kDay == 0 ? day_ms : hour_ms)->push_back({a0, MillisSince(a0)});
      out.hours.push_back({t0, MillisSince(t0)});
    }
  };
  replay(1, ckpt_hour);
  const auto c0 = Clock::now();
  const Status ck = live.Checkpoint(dir);
  out.checkpoint_ms = MillisSince(c0);
  if (!ck.ok()) {
    out.detail = "checkpoint failed: " + ck.ToString();
    return out;
  }
  replay(ckpt_hour + 1, size.hours);

  out.window_job_ms = reg.GetHistogram("bn_window_job_ms")->Sum();
  out.publish_ms = reg.GetHistogram("bn_snapshot_incremental_ms")->Sum() +
                   reg.GetHistogram("bn_snapshot_build_ms")->Sum();
  out.edge_updates = reg.GetCounter("bn_window_edge_updates_total")->value();
  out.incrementals = reg.GetCounter("bn_snapshot_incremental_total")->value();
  out.full_rebuilds =
      reg.GetCounter("bn_snapshot_full_rebuilds_total")->value();
  out.touched_rows = reg.GetGauge("bn_snapshot_touched_nodes")->value();
  out.bucket_cache_bytes = reg.GetGauge("bn_bucket_cache_bytes")->value();
  out.snapshot_bytes = reg.GetGauge("bn_snapshot_memory_bytes")->value();
  out.wal_bytes = reg.GetGauge("bn_wal_bytes")->value();
  out.wal_records = reg.GetCounter("bn_wal_records_total")->value();
  out.checkpoint_bytes = reg.GetGauge("bn_checkpoint_bytes")->value();
  if (!recover) return out;

  obs::MetricsRegistry rreg;
  server::BnServer recovered(ServerConfig(size, dir, &rreg));
  const auto r0 = Clock::now();
  const Status rs = recovered.Recover(dir);
  out.recover_ms = MillisSince(r0);
  out.replayed_records =
      rreg.GetCounter("bn_wal_replayed_records_total")->value();
  if (!rs.ok()) {
    out.detail = "recover failed: " + rs.ToString();
    return out;
  }
  out.identical =
      SameState(live, recovered, size.users, check_perturb, &out.detail);
  return out;
}

}  // namespace

int RunIngest(const Options& opts, Result* result) {
  IngestSize size;
  if (opts.tiny) size = {1000, 20000, 30};
  PrintEnvironment(opts, {{"la_kernel_threads", "1"},
                          {"window_job_threads", "1"},
                          {"snapshot_build_threads", "1"},
                          {"wal_fsync", "never"},
                          {"users", std::to_string(size.users)},
                          {"logs_per_pass", std::to_string(size.logs)},
                          {"hours_per_pass", std::to_string(size.hours)}});

  HostSpeed speed;
  BehaviorLogList logs;
  const double setup_s = MedianSetupSeconds(
      &speed, [&] { logs = BehaviorLogList{}; },
      [&] {
        logs = CommunityStream(kStreamSeed, size.users, size.logs,
                               size.hours, /*community=*/4);
        RelabelUsers(opts.seed, size.users, &logs);
      },
      opts.MinSetups());

  // A traced run alternates untraced passes (the reference for the
  // tracing overhead) with traced ones.
  std::vector<Timed> hour_ms, day_ms;
  std::vector<PassOut> passes;
  std::vector<bool> traced_pass;
  Tracer tracer;
  const auto start = Clock::now();
  for (int pass = 0;; ++pass) {
    const double el = MillisSince(start) / 1e3;
    if (pass >= 2 && el >= opts.seconds) break;
    const bool traced = opts.trace && pass % 2 == 1;
    // Recovery is checked on the first pass (the inputs are the same on
    // every pass) and timed on the traced ones.
    const bool recover = pass == 0 || traced;
    PassOut p = RunPass(size, logs,
                        opts.state_dir + "/pass" + std::to_string(pass),
                        traced ? &tracer : nullptr, &speed, recover,
                        pass == 0 &&
                            result->Breaking("ingest.recovered_identical"),
                        &hour_ms, &day_ms);
    result->Attempt(logs.size(), !recover || p.identical ? 0 : logs.size());
    if (recover) {
      result->Check("ingest.recovered_identical", p.identical, p.detail);
    }
    passes.push_back(std::move(p));
    traced_pass.push_back(traced);
    std::filesystem::remove_all(opts.state_dir + "/pass" +
                                std::to_string(pass));
    ReleaseFreedMemory();
  }
  speed.Sample();

  // Per pass: rescaled replay seconds, and logs per rescaled second.
  std::vector<double> rates, untraced_s, traced_s, raw_rates;
  for (size_t k = 0; k < passes.size(); ++k) {
    const double replay_s = Sum(Rescaled(speed, passes[k].hours)) / 1e3;
    raw_rates.push_back(logs.size() / (Sum(WallMs(passes[k].hours)) / 1e3));
    rates.push_back(logs.size() / std::max(replay_s, 1e-9));
    (traced_pass[k] ? traced_s : untraced_s).push_back(replay_s);
  }
  const std::vector<double> hour_scaled = Rescaled(speed, hour_ms);
  const std::vector<double> day_scaled = Rescaled(speed, day_ms);
  std::printf("# ingest: %zu passes of %zu logs / %d hours; hour publish "
              "p50 %.3f ms (%zu), day publish p50 %.3f ms (%zu), recover "
              "%.1f ms\n",
              passes.size(), logs.size(), size.hours, Median(hour_scaled),
              hour_scaled.size(), Median(day_scaled), day_scaled.size(),
              passes.front().recover_ms);
  PrintWall(speed, Median(WallMs(hour_ms)), Median(WallMs(day_ms)),
            Median(raw_rates));
  if (!opts.trace) {
    result->Metric("setup_s", setup_s, "s");
    result->Metric("p50_ms", Median(hour_scaled), "ms");
    result->Metric("tail_ms", Median(day_scaled), "ms");
    result->Metric("throughput_per_s", Median(rates), "1/s");
    return 0;
  }
  // Per-layer figures are wall times of the traced passes.
  std::vector<PassOut> traced_passes;
  for (size_t k = 0; k < passes.size(); ++k) {
    if (traced_pass[k]) traced_passes.push_back(passes[k]);
  }
  passes.swap(traced_passes);
  double replay_ms = 0.0;
  for (const auto& p : passes) replay_ms += Sum(WallMs(p.hours));
  auto mean_of = [&](double PassOut::*field) {
    double s = 0;
    for (const auto& p : passes) s += p.*field;
    return s / std::max<size_t>(passes.size(), 1);
  };
  const double hours = static_cast<double>(size.hours);
  const double ingest_ms = tracer.Total("server.ingest");
  const double advance_ms = tracer.Total("bn.advance");
  const double n_passes =
      static_cast<double>(std::max<size_t>(passes.size(), 1));
  result->Metric("server.ingest_us_per_log",
                 ingest_ms * 1e3 /
                     std::max<double>(tracer.Count("server.ingest"), 1),
                 "us");
  result->Metric("bn.advance_ms", tracer.MeanOf("bn.advance"), "ms");
  result->Metric("bn.window_job_ms", mean_of(&PassOut::window_job_ms) / hours,
                 "ms");
  result->Metric("bn.snapshot_publish_ms",
                 mean_of(&PassOut::publish_ms) / hours, "ms");
  result->Metric("ingest.layer_sum_ratio",
                 (ingest_ms + advance_ms) / std::max(replay_ms, 1e-9), "ratio");
  result->Metric("bn.window_edge_updates", mean_of(&PassOut::edge_updates),
                 "count");
  const double inc = mean_of(&PassOut::incrementals);
  const double full = mean_of(&PassOut::full_rebuilds);
  result->Metric("bn.snapshot_patch_ratio", inc / std::max(inc + full, 1.0),
                 "ratio");
  result->Metric("bn.snapshot_touched_rows", mean_of(&PassOut::touched_rows),
                 "count");
  result->Metric("bn.bucket_cache_bytes", mean_of(&PassOut::bucket_cache_bytes),
                 "bytes");
  result->Metric("bn.snapshot_bytes", mean_of(&PassOut::snapshot_bytes),
                 "bytes");
  result->Metric("storage.wal_bytes", mean_of(&PassOut::wal_bytes), "bytes");
  result->Metric("storage.wal_records", mean_of(&PassOut::wal_records),
                 "count");
  result->Metric("storage.checkpoint_ms", mean_of(&PassOut::checkpoint_ms),
                 "ms");
  result->Metric("storage.checkpoint_bytes",
                 mean_of(&PassOut::checkpoint_bytes), "bytes");
  result->Metric("storage.recover_ms", mean_of(&PassOut::recover_ms), "ms");
  result->Metric("storage.recover_replay_records",
                 mean_of(&PassOut::replayed_records), "count");
  result->Metric("trace.overhead_ratio",
                 Median(traced_s) / std::max(Median(untraced_s), 1e-9) - 1.0,
                 "ratio");
  const double per_pass = replay_ms / n_passes;
  const double window = mean_of(&PassOut::window_job_ms);
  const double publish = mean_of(&PassOut::publish_ms);
  auto share = [&](const char* name, double ms) {
    std::printf("#   %-26s %9.1f ms  %5.1f%%\n", name, ms,
                100.0 * ms / per_pass);
  };
  std::printf("# layer shares of the replay wall (ingest, per pass):\n");
  share("server.ingest", ingest_ms / n_passes);
  share("bn.window_job", window);
  share("bn.snapshot_publish", publish);
  share("bn.advance (other)", advance_ms / n_passes - window - publish);
  return 0;
}

}  // namespace perfbench
