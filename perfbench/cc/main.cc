// turbo_perfbench: one workload per invocation.
//
//   turbo_perfbench --workload <serve|ingest|train|cluster> --seed N
//                   --seconds S --trace <0|1> [--tiny 1]
//                   [--state_dir DIR] [--break_check NAME]
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 the
// per-layer metrics. The last stdout line is the result JSON. The exit
// code is non-zero when any correctness check failed.
#include <cstdio>
#include <filesystem>
#include <string>

#include "common.h"
#include "la/matrix.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      o->workload = v;
    } else if (k == "--seed") {
      o->seed = std::stoull(v);
    } else if (k == "--seconds") {
      o->seconds = std::stod(v);
    } else if (k == "--trace") {
      o->trace = v != "0";
    } else if (k == "--tiny") {
      o->tiny = v != "0";
    } else if (k == "--state_dir") {
      o->state_dir = v;
    } else if (k == "--break_check") {
      o->break_check = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", k.c_str());
      return false;
    }
  }
  return argc % 2 == 1 && !o->workload.empty() && o->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  if (!ParseArgs(argc, argv, &opts)) {
    std::fprintf(stderr,
                 "usage: turbo_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--tiny 0|1] [--state_dir D] "
                 "[--break_check NAME]\n");
    return 2;
  }
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr, "turbo_perfbench was built without optimization\n");
  return 2;
#endif
  std::filesystem::remove_all(opts.state_dir);
  std::filesystem::create_directories(opts.state_dir);
  // Every workload runs on one CPU with kernels inline on the calling
  // thread. Unpinned, cross-vCPU wake-ups made loopback RPC throughput
  // swing 2x between runs and open-loop p50 +-25%.
  turbo::la::SetKernelThreads(1);
  opts.cpus = perfbench::PinToLastCpus(1);

  perfbench::Result result(opts);
  int rc = 2;
  if (opts.workload == "serve") {
    rc = perfbench::RunServe(opts, &result);
  } else if (opts.workload == "ingest") {
    rc = perfbench::RunIngest(opts, &result);
  } else if (opts.workload == "train") {
    rc = perfbench::RunTrain(opts, &result);
  } else if (opts.workload == "cluster") {
    rc = perfbench::RunCluster(opts, &result);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", opts.workload.c_str());
  }
  std::filesystem::remove_all(opts.state_dir);
  if (rc != 0) return rc;

  if (opts.trace) {
    // Every traced run reports the full per-layer list; a layer this
    // workload never calls did no work and reads 0.
    for (const auto& [name, unit] : perfbench::PerLayerMetrics()) {
      result.MetricIfAbsent(name, 0.0, unit);
    }
  } else {
    result.Metric("peak_rss_mb", perfbench::PeakRssMb(), "MB");
  }
  result.Print();
  return result.correct() ? 0 : 1;
}
