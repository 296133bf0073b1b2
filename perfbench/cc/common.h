// Shared harness for the repo benchmark: options, exact-sample
// statistics, span recording, correctness bookkeeping and the one-line
// JSON result every workload prints last.
//
// Every timing here is wall time from std::chrono::steady_clock taken in
// the benchmark's own code around calls into the library's public API.
// Nothing reads obs::Histogram percentiles or PredictionResponse stage
// times: percentiles come from the per-operation samples stored below.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/hag.h"
#include "storage/behavior_log.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Shrinks every workload to a few-second smoke size (the benchmark's
  /// own tests run this way).
  bool tiny = false;
  /// Scratch directory for WAL and checkpoint files (inside the
  /// checkout); removed again before exit.
  std::string state_dir = ".bench_build/state";
  /// Name of one correctness check whose expected value is deliberately
  /// perturbed, to show that the check can fail. Empty = none.
  std::string break_check;
  /// CPUs the run is pinned to (set by main).
  std::string cpus;

  /// Independent set-ups per run at least; setup_s is their median.
  int MinSetups() const { return tiny ? 1 : 3; }
};

/// Exact order-statistic percentile (linear interpolation between the
/// two closest ranks, numpy's default). q in [0, 1]; 0 for no samples.
double Percentile(std::vector<double> v, double q);
double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);
double Sum(const std::vector<double>& v);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Durations per span name. A null Tracer* means tracing is off; Span
/// then costs one branch and reads no clock.
class Tracer {
 public:
  void Add(const std::string& name, double ms) { spans_[name].push_back(ms); }
  const std::vector<double>& Get(const std::string& name) const;
  double Total(const std::string& name) const { return Sum(Get(name)); }
  double MeanOf(const std::string& name) const { return Mean(Get(name)); }
  size_t Count(const std::string& name) const { return Get(name).size(); }

 private:
  std::map<std::string, std::vector<double>> spans_;
};

class Span {
 public:
  Span(Tracer* tracer, const char* name) : tracer_(tracer), name_(name) {
    if (tracer_ != nullptr) t0_ = Clock::now();
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->Add(name_, MillisSince(t0_));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  Clock::time_point t0_;
};

/// Host speed reference. On a shared VM the host's speed moves in steps
/// of 10–70%, some lasting seconds and some minutes, so raw wall times
/// of identical runs differ by more than any useful bound. A fixed
/// reference kernel, written here and calling no library code, is timed
/// between the measured operations of every run. Each measured time is
/// rescaled to a host on which the kernel takes kReferenceMs, using the
/// median of the kNeighbors kernel samples nearest to it in time: an
/// operation run while the host was slow is divided by that moment's
/// kernel slowdown. A change to the library changes the measured
/// operations and not the kernel, so it shows in full.
class HostSpeed {
 public:
  /// Median kernel wall, in ms, on the host the benchmark was tuned on.
  static constexpr double kReferenceMs = 0.5;
  static constexpr size_t kNeighbors = 64;

  /// Times the kernel `reps` times.
  void Sample(int reps = 2);
  /// Times the kernel once; keeps the sample only if this thread was not
  /// preempted meanwhile.
  void SampleUnpreempted();
  /// Samples if at least `every_ms` passed since the last sample.
  void SampleEvery(double every_ms, int reps = 2);
  double median_ms() const { return Median(ms_); }
  size_t samples() const { return ms_.size(); }
  /// Reference-host time per wall time around `t`.
  double FactorAt(Clock::time_point t) const;
  /// An operation that started at `t0` and took `ms` of wall, rescaled.
  double Time(Clock::time_point t0, double ms) const;

 private:
  std::vector<Clock::time_point> at_;
  std::vector<double> ms_;
  Clock::time_point last_ = Clock::now();
};

/// Takes host-speed samples on a SCHED_IDLE thread until Stop(), for an
/// open loop, whose requests must not wait for a sample. The scheduler
/// runs the thread only while no other thread of the process is
/// runnable and preempts it as soon as one wakes; a sample that was
/// preempted is dropped. `speed` belongs to the thread until Stop().
class IdleSampler {
 public:
  explicit IdleSampler(HostSpeed* speed);
  ~IdleSampler() { Stop(); }
  void Stop();

 private:
  HostSpeed* speed_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// One timed operation: its start and its wall time.
struct Timed {
  Clock::time_point t0;
  double ms = 0.0;
};

/// The operations' times rescaled to the reference host.
std::vector<double> Rescaled(const HostSpeed& speed,
                             const std::vector<Timed>& ops);
/// The operations' wall times as measured.
std::vector<double> WallMs(const std::vector<Timed>& ops);

/// Prints the end-to-end figures before rescaling, with the host-speed
/// samples they were rescaled by, as a "# wall ..." line.
void PrintWall(const HostSpeed& speed, double p50_ms, double tail_ms,
               double throughput_per_s);

/// Outcome of one workload run: metrics, operation counts and checks.
class Result {
 public:
  explicit Result(const Options& opts) : opts_(opts) {}

  void Metric(const std::string& name, double value, const std::string& unit);
  void MetricIfAbsent(const std::string& name, double value,
                      const std::string& unit);

  /// Records operations attempted and failed (shed, rejected, non-OK).
  void Attempt(uint64_t attempted, uint64_t failed = 0) {
    attempted_ += attempted;
    failed_ += failed;
  }

  /// Records one correctness check.
  void Check(const std::string& name, bool ok, const std::string& detail);

  /// True when `name` is the check selected by --break_check: the caller
  /// then perturbs that check's expected value, so the check must fail.
  bool Breaking(const std::string& name) const {
    return name == opts_.break_check;
  }

  bool correct() const { return failed_checks_.empty() && checks_ > 0; }

  /// Prints the check summary to stderr and the result JSON as the last
  /// line of stdout.
  void Print() const;

 private:
  const Options& opts_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  int checks_ = 0;
  std::vector<std::string> failed_checks_;
};

/// Prints the pinned run environment (thread counts, nproc, kernel ISA,
/// build type, machine fingerprint inputs) as "# env ..." lines.
void PrintEnvironment(const Options& opts,
                      const std::map<std::string, std::string>& pins);

/// Set-up time of a workload: `build` from nothing, repeated at least
/// `min_reps` times and until about `budget_s` seconds are spent (at
/// most `max_reps`), with host-speed samples before each repetition and
/// after the last; returns the median rescaled seconds. `clear` releases
/// the previous repetition's state and is not timed; the last build's
/// state is the one the run uses.
template <typename Clear, typename Build>
double MedianSetupSeconds(HostSpeed* speed, Clear&& clear, Build&& build,
                          int min_reps = 3, double budget_s = 2.0,
                          int max_reps = 25) {
  constexpr int kSpeedReps = HostSpeed::kNeighbors / 2;
  std::vector<Timed> reps;
  double spent_ms = 0.0;
  while (static_cast<int>(reps.size()) < min_reps ||
         (spent_ms < budget_s * 1e3 &&
          static_cast<int>(reps.size()) < max_reps)) {
    clear();
    speed->Sample(kSpeedReps);
    const auto t0 = Clock::now();
    build();
    reps.push_back({t0, MillisSince(t0)});
    spent_ms += reps.back().ms;
  }
  speed->Sample(kSpeedReps);
  return Median(Rescaled(*speed, reps)) / 1e3;
}

/// Restricts this process (and every thread it starts afterwards) to the
/// last `n` CPUs it may run on; returns them as a list like "3" or
/// "2,3". On a VM a wake-up across vCPUs can cost from microseconds to
/// milliseconds depending on host load, so loopback RPC and
/// cross-thread hand-offs are steadier on one CPU.
std::string PinToLastCpus(int n);

/// Returns freed heap pages to the OS between passes, so that peak RSS
/// measures one pass's state rather than allocator history.
void ReleaseFreedMemory();

/// The HAG every workload runs: hidden 48/24, attention and head 24 (the
/// repo's single-core bench scale).
turbo::core::HagConfig BenchHagConfig(uint64_t seed);

/// Community-structured co-occurrence traffic: `logs` logs over `hours`
/// sim-hours; each user shares values with the `community` users next to
/// it, plus 0.1% Zipf noise. Sorted by time; deterministic in `seed`.
turbo::BehaviorLogList CommunityStream(uint64_t seed, int users, size_t logs,
                                       int hours, int community);

/// Renames the stream's users with a seeded permutation of [0, users):
/// the same traffic shape and work on every seed, different ids.
void RelabelUsers(uint64_t seed, int users, turbo::BehaviorLogList* logs);

/// Seeded request targets drawn without replacement: back-to-back
/// shuffles of `pool`. Every run touches each pool member about equally
/// often, so the heavy-neighborhood users that set the tail appear in
/// the same proportion on every seed.
class TargetStream {
 public:
  TargetStream(uint64_t seed, std::vector<turbo::UserId> pool);
  /// Pool = the whole population [0, users).
  TargetStream(uint64_t seed, int users);
  turbo::UserId Next();

 private:
  uint64_t rng_state_;
  std::vector<turbo::UserId> perm_;
  size_t pos_ = 0;
};

int RunServe(const Options& opts, Result* result);
int RunIngest(const Options& opts, Result* result);
int RunTrain(const Options& opts, Result* result);
int RunCluster(const Options& opts, Result* result);

/// Per-layer metric names every traced run emits (a layer a workload
/// does not call reads 0), with units.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

}  // namespace perfbench
