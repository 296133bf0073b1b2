#include "common.h"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "la/cpu_features.h"
#include "la/matrix.h"
#include "util/rng.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

namespace perfbench {

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * (v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - lo) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : Sum(v) / static_cast<double>(v.size());
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

turbo::BehaviorLogList CommunityStream(uint64_t seed, int users, size_t logs,
                                       int hours, int community) {
  using namespace turbo;
  const BehaviorType types[] = {BehaviorType::kIpv4, BehaviorType::kImei,
                                BehaviorType::kWifiMac};
  constexpr ValueId kNoiseValues = 65536;
  Rng rng(MixSeeds(seed, 0x1a6e));
  BehaviorLogList out;
  out.reserve(logs);
  const uint64_t span = static_cast<uint64_t>(hours) * kHour;
  for (size_t i = 0; i < logs; ++i) {
    BehaviorLog log;
    log.uid = static_cast<UserId>(rng.NextUint(users));
    log.type = types[rng.NextUint(3)];
    log.value = rng.NextBool(0.999) ? kNoiseValues + log.uid / community
                                    : rng.NextZipf(kNoiseValues, 0.5);
    log.time = static_cast<SimTime>(rng.NextUint(span));
    out.push_back(log);
  }
  std::sort(out.begin(), out.end(),
            [](const BehaviorLog& a, const BehaviorLog& b) {
              return a.time < b.time;
            });
  return out;
}

void RelabelUsers(uint64_t seed, int users, turbo::BehaviorLogList* logs) {
  std::vector<turbo::UserId> perm(static_cast<size_t>(users));
  std::iota(perm.begin(), perm.end(), turbo::UserId{0});
  turbo::Rng rng(turbo::MixSeeds(seed, 0x5e1a));
  rng.Shuffle(&perm);
  for (auto& log : *logs) log.uid = perm[log.uid];
}

TargetStream::TargetStream(uint64_t seed, std::vector<turbo::UserId> pool)
    : rng_state_(seed), perm_(std::move(pool)), pos_(perm_.size()) {}

TargetStream::TargetStream(uint64_t seed, int users)
    : TargetStream(seed, [users] {
        std::vector<turbo::UserId> all(static_cast<size_t>(users));
        for (size_t i = 0; i < all.size(); ++i) {
          all[i] = static_cast<turbo::UserId>(i);
        }
        return all;
      }()) {}

turbo::UserId TargetStream::Next() {
  if (pos_ == perm_.size()) {
    rng_state_ = turbo::MixSeeds(rng_state_, 0x7a6e);
    turbo::Rng rng(rng_state_);
    rng.Shuffle(&perm_);
    pos_ = 0;
  }
  return perm_[pos_++];
}

std::string PinToLastCpus(int n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return "unpinned";
  cpu_set_t pin;
  CPU_ZERO(&pin);
  std::string list;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && n > 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, &pin);
    list = std::to_string(cpu) + (list.empty() ? "" : "," + list);
    --n;
  }
  if (list.empty() || sched_setaffinity(0, sizeof(pin), &pin) != 0) {
    return "unpinned";
  }
  return list;
}

void ReleaseFreedMemory() { malloc_trim(0); }

turbo::core::HagConfig BenchHagConfig(uint64_t seed) {
  turbo::core::HagConfig cfg;
  cfg.hidden = {48, 24};
  cfg.attention_dim = 24;
  cfg.mlp_hidden = 24;
  cfg.seed = seed;
  return cfg;
}

namespace {

// The reference kernel: four fixed pieces of work, about 0.1 ms each on
// the host the benchmark was tuned on — an in-cache float matrix product
// (inference and training kernels), hash-map updates (edge and feature
// maps), a sort (log and window ordering) and a dependent-load chase
// through 256 KiB (graph sampling). Each alone tracked some workloads' slowdowns and missed
// others' (a vectorized product alone overstated the train and ingest
// slowdowns by about half; a chase through 2 MiB tracked none); their
// sum tracked all four within the spreads in STEADINESS.md. Everything
// is thread-local, and each piece returns a checksum that keeps the
// compiler from dropping the work.

uint64_t MatrixProduct() {
  constexpr int kDim = 48;
  alignas(64) thread_local float a[kDim * kDim], b[kDim * kDim],
      c[kDim * kDim];
  for (int i = 0; i < kDim * kDim; ++i) {
    a[i] = static_cast<float>(i % 7) * 0.25f;
    b[i] = static_cast<float>(i % 5) * 0.5f;
    c[i] = 0.f;
  }
  for (int r = 0; r < 8; ++r) {
    for (int i = 0; i < kDim; ++i) {
      for (int k = 0; k < kDim; ++k) {
        const float aik = a[i * kDim + k];
        for (int j = 0; j < kDim; ++j) c[i * kDim + j] += aik * b[k * kDim + j];
      }
    }
  }
  return static_cast<uint64_t>(c[kDim * kDim / 2]);
}

uint64_t XorShift(uint64_t* x) {
  *x ^= *x << 13;
  *x ^= *x >> 7;
  *x ^= *x << 17;
  return *x;
}

uint64_t HashUpdates() {
  thread_local std::unordered_map<uint64_t, uint32_t> map;
  map.clear();
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (uint32_t i = 0; i < 3000; ++i) map[XorShift(&x) % 4096] += i;
  return map.size();
}

uint64_t Sort() {
  thread_local std::vector<uint64_t> v(3000);
  uint64_t x = 0x77;
  for (auto& k : v) k = XorShift(&x);
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

uint64_t LoadChase() {
  constexpr uint32_t kSlots = 1u << 16;  // 256 KiB
  static const std::vector<uint32_t> next = [] {
    std::vector<uint32_t> order(kSlots);
    std::iota(order.begin(), order.end(), 0u);
    turbo::Rng rng(0x5eed);
    rng.Shuffle(&order);
    std::vector<uint32_t> n(kSlots);
    for (uint32_t i = 0; i < kSlots; ++i) {
      n[order[i]] = order[(i + 1) % kSlots];
    }
    return n;
  }();
  uint32_t p = 0;
  for (int i = 0; i < 20000; ++i) p = next[p];
  return p;
}

uint64_t ReferenceKernel() {
  return MatrixProduct() + HashUpdates() + Sort() + LoadChase();
}

}  // namespace

void HostSpeed::Sample(int reps) {
  thread_local volatile uint64_t sink = 0;
  // One untimed pass first: the timed ones then find the kernel's code
  // and data in cache whatever the workload did just before.
  sink = sink + ReferenceKernel();
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    sink = sink + ReferenceKernel();
    at_.push_back(t0);
    ms_.push_back(MillisSince(t0));
  }
  last_ = Clock::now();
}

void HostSpeed::SampleUnpreempted() {
  thread_local volatile uint64_t sink = 0;
  rusage r0{}, r1{};
  getrusage(RUSAGE_THREAD, &r0);
  const auto t0 = Clock::now();
  sink = sink + ReferenceKernel();
  const double ms = MillisSince(t0);
  getrusage(RUSAGE_THREAD, &r1);
  if (r1.ru_nivcsw != r0.ru_nivcsw) return;
  at_.push_back(t0);
  ms_.push_back(ms);
}

IdleSampler::IdleSampler(HostSpeed* speed) : speed_(speed) {
  thread_ = std::thread([this] {
    sched_param param{};
    sched_setscheduler(0, SCHED_IDLE, &param);
    while (!stop_.load(std::memory_order_relaxed)) {
      speed_->SampleUnpreempted();
    }
  });
}

void IdleSampler::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void HostSpeed::SampleEvery(double every_ms, int reps) {
  if (MillisSince(last_) >= every_ms) Sample(reps);
}

double HostSpeed::FactorAt(Clock::time_point t) const {
  // Samples are in time order: the nearest ones are a contiguous range
  // around t's insertion point.
  const size_t n = ms_.size();
  if (n == 0) return 1.0;
  const size_t k = std::min(n, kNeighbors);
  const size_t at = std::lower_bound(at_.begin(), at_.end(), t) - at_.begin();
  const size_t lo = std::min(at - std::min(at, k / 2), n - k);
  return kReferenceMs / Median(std::vector<double>(ms_.begin() + lo,
                                                   ms_.begin() + lo + k));
}

double HostSpeed::Time(Clock::time_point t0, double ms) const {
  const auto mid = t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(ms / 2));
  return ms * FactorAt(mid);
}

std::vector<double> Rescaled(const HostSpeed& speed,
                             const std::vector<Timed>& ops) {
  std::vector<double> out;
  out.reserve(ops.size());
  for (const auto& op : ops) out.push_back(speed.Time(op.t0, op.ms));
  return out;
}

std::vector<double> WallMs(const std::vector<Timed>& ops) {
  std::vector<double> out;
  out.reserve(ops.size());
  for (const auto& op : ops) out.push_back(op.ms);
  return out;
}

void PrintWall(const HostSpeed& speed, double p50_ms, double tail_ms,
               double throughput_per_s) {
  std::printf("# wall (not rescaled) p50_ms=%.6g tail_ms=%.6g "
              "throughput_per_s=%.6g host_kernel_ms=%.6g host_samples=%zu "
              "reference_ms=%g\n",
              p50_ms, tail_ms, throughput_per_s, speed.median_ms(),
              speed.samples(), HostSpeed::kReferenceMs);
}

const std::vector<double>& Tracer::Get(const std::string& name) const {
  static const std::vector<double> kEmpty;
  auto it = spans_.find(name);
  return it == spans_.end() ? kEmpty : it->second;
}

void Result::Metric(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& m : metrics_) {
    if (m.first == name) {
      m.second = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

void Result::MetricIfAbsent(const std::string& name, double value,
                            const std::string& unit) {
  for (const auto& m : metrics_) {
    if (m.first == name) return;
  }
  metrics_.push_back({name, {value, unit}});
}

void Result::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  ++checks_;
  std::fprintf(stderr, "# check %-28s %s  %s\n", name.c_str(),
               ok ? "ok  " : "FAIL", detail.c_str());
  if (!ok) failed_checks_.push_back(name);
}

void Result::Print() const {
  for (const auto& name : failed_checks_) {
    std::fprintf(stderr, "# FAILED check: %s\n", name.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(
                  std::max<uint64_t>(attempted_, 1)),
              static_cast<unsigned long long>(failed_));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", name.c_str(), v, vu.second.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void PrintEnvironment(const Options& opts,
                      const std::map<std::string, std::string>& pins) {
  std::printf("# env workload=%s seed=%llu seconds=%g trace=%d tiny=%d\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? 1 : 0, opts.tiny ? 1 : 0);
  std::printf("# env nproc=%u cpus=%s build_type=%s kernel_isa=%s "
              "kernel_threads=%d\n",
              std::thread::hardware_concurrency(), opts.cpus.c_str(),
              PERFBENCH_BUILD_TYPE,
              turbo::la::IsaName(turbo::la::ActiveIsa()),
              turbo::la::KernelThreads());
  for (const auto& [k, v] : pins) {
    std::printf("# env pin %s=%s\n", k.c_str(), v.c_str());
  }
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      // serve: the decomposed HandleBatch, per batch of 8.
      {"bn.sample_ms", "ms"},
      {"bn.subgraph_nodes", "count"},
      {"features.fetch_ms", "ms"},
      {"features.modeled_ms", "ms"},
      {"features.hit_ratio", "ratio"},
      {"ml.scale_ms", "ms"},
      {"gnn.graph_batch_ms", "ms"},
      {"gnn.forward_ms", "ms"},
      {"serve.handle_batch_ms", "ms"},
      {"serve.layer_sum_ratio", "ratio"},
      {"la.gemm_ms", "ms"},
      {"la.gemm_gflops", "GFLOP/s"},
      {"la.spmm_ms", "ms"},
      {"la.spmm_gbps", "GB/s"},
      {"server.batch_size_mean", "count"},
      {"server.shed", "count"},
      {"server.rejected", "count"},
      {"loadgen.late_p99_ms", "ms"},
      // ingest: the Ingest + AdvanceTo replay, per hour boundary.
      {"server.ingest_us_per_log", "us"},
      {"bn.advance_ms", "ms"},
      {"bn.window_job_ms", "ms"},
      {"bn.snapshot_publish_ms", "ms"},
      {"ingest.layer_sum_ratio", "ratio"},
      {"bn.window_edge_updates", "count"},
      {"bn.snapshot_patch_ratio", "ratio"},
      {"bn.snapshot_touched_rows", "count"},
      {"bn.bucket_cache_bytes", "bytes"},
      {"bn.snapshot_bytes", "bytes"},
      {"storage.wal_bytes", "bytes"},
      {"storage.wal_records", "count"},
      {"storage.checkpoint_ms", "ms"},
      {"storage.checkpoint_bytes", "bytes"},
      {"storage.recover_ms", "ms"},
      {"storage.recover_replay_records", "count"},
      // train: one decomposed full-batch step per epoch.
      {"autograd.forward_ms", "ms"},
      {"autograd.backward_ms", "ms"},
      {"autograd.optimizer_ms", "ms"},
      {"train.layer_sum_ratio", "ratio"},
      {"la.train_gemm_ms", "ms"},
      {"la.dispatch_gemm_ms", "ms"},
      // cluster: loopback-socket shards.
      {"net.ingest_rpc_us", "us"},
      {"server.barrier_ms", "ms"},
      {"net.predict_overhead_ms", "ms"},
      {"net.bytes_sent", "bytes"},
      {"net.bytes_received", "bytes"},
      {"net.reconnects", "count"},
      {"net.rpc_errors", "count"},
      {"server.forwarded_ratio", "ratio"},
      // every workload: traced minus untraced, over untraced.
      {"trace.overhead_ratio", "ratio"},
  };
  return kMetrics;
}

}  // namespace perfbench
