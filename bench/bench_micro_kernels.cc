// Google-benchmark microbenchmarks for the kernels the system is built
// on: dense/sparse linear algebra, BN construction throughput, subgraph
// sampling, statistical-feature computation, HAG forward pass, and GBDT
// training.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "bn/builder.h"
#include "features/stat_features.h"
#include "la/kernel_dispatch.h"

using namespace turbo;

namespace {

void BM_MatMul(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  auto a = la::Matrix::Randn(n, n, &rng);
  auto b = la::Matrix::Randn(n, n, &rng);
  for (auto _ : state) {
    auto c = la::MatMul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(256);

// The pre-optimization GEMM, kept verbatim as the "before" number for
// the blocked kernels behind la::dispatch: serial ikj with a
// zero-skip branch in the hot loop (a data-dependent branch that costs
// more than the multiplies it saves on dense inputs).
la::Matrix MatMulZeroSkipReference(const la::Matrix& a,
                                   const la::Matrix& b) {
  la::Matrix c(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t p = 0; p < a.cols(); ++p) {
      const float av = a(i, p);
      if (av == 0.0f) continue;
      for (size_t j = 0; j < b.cols(); ++j) c(i, j) += av * b(p, j);
    }
  }
  return c;
}

void BM_MatMulReference(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  auto a = la::Matrix::Randn(n, n, &rng);
  auto b = la::Matrix::Randn(n, n, &rng);
  for (auto _ : state) {
    auto c = MatMulZeroSkipReference(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMulReference)->Arg(64)->Arg(256);

void BM_MatMulTransB(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  auto a = la::Matrix::Randn(n, n, &rng);
  auto b = la::Matrix::Randn(n, n, &rng);
  for (auto _ : state) {
    auto c = la::dispatch::MatMulTransB(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMulTransB)->Arg(64)->Arg(256);

// SIMD dispatch cells: the same GEMM through la::dispatch on the best
// host tier vs forced scalar. check_bench_regression.py holds
// dispatch/256 to >= 3x scalar/256 whenever the host has a SIMD tier.
void BM_MatMulDispatch(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  auto a = la::Matrix::Randn(n, n, &rng);
  auto b = la::Matrix::Randn(n, n, &rng);
  for (auto _ : state) {
    auto c = la::dispatch::MatMul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
  state.SetLabel(la::IsaName(la::ActiveIsa()));
}
BENCHMARK(BM_MatMulDispatch)->Arg(64)->Arg(256);

void BM_MatMulScalar(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  auto a = la::Matrix::Randn(n, n, &rng);
  auto b = la::Matrix::Randn(n, n, &rng);
  la::ScopedKernelIsa scalar(la::KernelIsa::kScalar);
  for (auto _ : state) {
    auto c = la::dispatch::MatMul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMulScalar)->Arg(64)->Arg(256);

void BM_SpMM(benchmark::State& state) {
  const size_t n = 20000, nnz = 200000, d = 32;
  Rng rng(2);
  std::vector<la::Triplet> trips;
  trips.reserve(nnz);
  for (size_t i = 0; i < nnz; ++i) {
    trips.push_back({static_cast<uint32_t>(rng.NextUint(n)),
                     static_cast<uint32_t>(rng.NextUint(n)), 1.0f});
  }
  auto adj = la::SparseMatrix::FromTriplets(n, n, trips);
  auto x = la::Matrix::Randn(n, d, &rng);
  for (auto _ : state) {
    auto y = la::dispatch::Spmm(adj, x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * adj.nnz() * d);
}
BENCHMARK(BM_SpMM);

/// CSR fixture shared by the dispatched SpMM cells.
const la::SparseMatrix& SharedSparse() {
  static const la::SparseMatrix adj = [] {
    const size_t n = 20000, nnz = 200000;
    Rng rng(2);
    std::vector<la::Triplet> trips;
    trips.reserve(nnz);
    for (size_t i = 0; i < nnz; ++i) {
      trips.push_back({static_cast<uint32_t>(rng.NextUint(n)),
                       static_cast<uint32_t>(rng.NextUint(n)), 1.0f});
    }
    return la::SparseMatrix::FromTriplets(n, n, trips);
  }();
  return adj;
}

// Dispatched SpMM, best tier vs forced scalar; the regression gate holds
// dispatch to >= 2x scalar on SIMD hosts.
void BM_SpMMDispatch(benchmark::State& state) {
  const size_t d = 32;
  const auto& adj = SharedSparse();
  Rng rng(3);
  auto x = la::Matrix::Randn(adj.cols(), d, &rng);
  for (auto _ : state) {
    auto y = la::dispatch::Spmm(adj, x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * adj.nnz() * d);
  state.SetLabel(la::IsaName(la::ActiveIsa()));
}
BENCHMARK(BM_SpMMDispatch);

void BM_SpMMScalar(benchmark::State& state) {
  const size_t d = 32;
  const auto& adj = SharedSparse();
  Rng rng(3);
  auto x = la::Matrix::Randn(adj.cols(), d, &rng);
  la::ScopedKernelIsa scalar(la::KernelIsa::kScalar);
  for (auto _ : state) {
    auto y = la::dispatch::Spmm(adj, x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * adj.nnz() * d);
}
BENCHMARK(BM_SpMMScalar);

// Fused act(S*X + addend) epilogue vs the unfused three-pass compose —
// the win the reassociated inference forwards bank on.
void BM_SpMMBiasActFused(benchmark::State& state) {
  const size_t d = 32;
  const auto& adj = SharedSparse();
  Rng rng(3);
  auto x = la::Matrix::Randn(adj.cols(), d, &rng);
  auto addend = la::Matrix::Randn(adj.rows(), d, &rng);
  for (auto _ : state) {
    auto y = la::dispatch::SpmmBiasAct(adj, x, &addend, la::Act::kRelu);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * adj.nnz() * d);
  state.SetLabel(la::IsaName(la::ActiveIsa()));
}
BENCHMARK(BM_SpMMBiasActFused);

void BM_SpMMBiasActUnfused(benchmark::State& state) {
  const size_t d = 32;
  const auto& adj = SharedSparse();
  Rng rng(3);
  auto x = la::Matrix::Randn(adj.cols(), d, &rng);
  auto addend = la::Matrix::Randn(adj.rows(), d, &rng);
  for (auto _ : state) {
    auto y = la::dispatch::Spmm(adj, x);
    y.Add(addend, 1.0f);
    y = la::dispatch::MapAct(y, la::Act::kRelu);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * adj.nnz() * d);
}
BENCHMARK(BM_SpMMBiasActUnfused);

// Shared dataset fixture (generated once).
const datagen::Dataset& SharedDataset() {
  static const datagen::Dataset ds =
      datagen::GenerateScenario(datagen::ScenarioConfig::D1Like(2000));
  return ds;
}

void BM_ScenarioGeneration(benchmark::State& state) {
  auto cfg = datagen::ScenarioConfig::D1Like(
      static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto ds = datagen::GenerateScenario(cfg);
    benchmark::DoNotOptimize(ds.logs.data());
    state.counters["logs"] = static_cast<double>(ds.logs.size());
  }
}
BENCHMARK(BM_ScenarioGeneration)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_BnConstruction(benchmark::State& state) {
  const auto& ds = SharedDataset();
  for (auto _ : state) {
    storage::EdgeStore edges;
    bn::BnBuilder builder(bn::BnConfig{}, &edges);
    builder.BuildFromLogs(ds.logs);
    benchmark::DoNotOptimize(edges.TotalEdges());
  }
  state.SetItemsProcessed(state.iterations() * ds.logs.size());
}
BENCHMARK(BM_BnConstruction)->Unit(benchmark::kMillisecond);

const storage::EdgeStore& SharedEdges() {
  static const storage::EdgeStore* edges = [] {
    auto* e = new storage::EdgeStore();
    bn::BnBuilder(bn::BnConfig{}, e).BuildFromLogs(SharedDataset().logs);
    return e;
  }();
  return *edges;
}

void BM_SnapshotBuild(benchmark::State& state) {
  const auto& ds = SharedDataset();
  const auto& edges = SharedEdges();
  bn::SnapshotOptions options;
  options.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto snap = bn::BnSnapshot::Build(
        edges, static_cast<int>(ds.users.size()), options);
    benchmark::DoNotOptimize(snap->TotalEdges());
    state.counters["bytes"] = static_cast<double>(snap->MemoryBytes());
  }
}
BENCHMARK(BM_SnapshotBuild)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_SubgraphSampling(benchmark::State& state) {
  const auto& ds = SharedDataset();
  bn::GraphView net(bn::BnSnapshot::Build(
      SharedEdges(), static_cast<int>(ds.users.size())));
  bn::SubgraphSampler sampler(net, bn::SamplerConfig{});
  UserId uid = 0;
  for (auto _ : state) {
    auto sg = sampler.SampleOne(uid);
    benchmark::DoNotOptimize(sg.nodes.data());
    uid = (uid + 17) % ds.users.size();
  }
}
BENCHMARK(BM_SubgraphSampling);

void BM_StatFeatures(benchmark::State& state) {
  const auto& ds = SharedDataset();
  static storage::LogStore store;
  if (store.size() == 0) store.AppendBatch(ds.logs);
  UserId uid = 0;
  for (auto _ : state) {
    auto f = features::ComputeStatFeatures(
        store, uid, ds.users[uid].application_time + kDay);
    benchmark::DoNotOptimize(f.data());
    uid = (uid + 13) % ds.users.size();
  }
}
BENCHMARK(BM_StatFeatures);

// The serving forward: HAG Logits under ag::NoGradScope (no parents, no
// backward closures kept).
void BM_HagForward(benchmark::State& state) {
  const auto& ds = SharedDataset();
  static std::unique_ptr<core::PreparedData> data;
  if (!data) {
    datagen::Dataset copy = ds;
    data = core::PrepareData(std::move(copy), core::PipelineConfig{});
  }
  benchx::BenchScale scale;
  core::Hag model(benchx::MakeHagConfig(scale, 1));
  model.Init(static_cast<int>(data->features.cols()));
  auto batch = core::MakeBatch(*data, data->test_uids, bn::SamplerConfig{});
  ag::NoGradScope no_grad;
  for (auto _ : state) {
    auto logits = model.Logits(batch, /*training=*/false, nullptr);
    benchmark::DoNotOptimize(logits->value.data());
  }
  state.counters["batch_nodes"] = static_cast<double>(batch.num_nodes());
}
BENCHMARK(BM_HagForward)->Unit(benchmark::kMillisecond);

void BM_GbdtFit(benchmark::State& state) {
  Rng rng(3);
  const int n = 4000, d = 30;
  la::Matrix x = la::Matrix::Randn(n, d, &rng);
  std::vector<int> y(n);
  for (int i = 0; i < n; ++i) y[i] = x(i, 0) + x(i, 1) > 0.5f;
  ml::GbdtConfig cfg;
  cfg.num_trees = 30;
  for (auto _ : state) {
    ml::Gbdt model(cfg);
    model.Fit(x, y);
    benchmark::DoNotOptimize(model.num_trees());
  }
  state.SetItemsProcessed(state.iterations() * n * d * cfg.num_trees);
}
BENCHMARK(BM_GbdtFit)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main (instead of BENCHMARK_MAIN) so the run is Release-gated
// like every other bench and the JSON context records which kernel ISA
// the dispatch cells ran on — check_bench_regression.py keys its SIMD
// floor gates on "turbo_best_isa" and skips them on scalar-only hosts.
int main(int argc, char** argv) {
  turbo::benchx::RequireReleaseBuild();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("turbo_best_isa",
                              la::IsaName(la::BestIsa()));
  benchmark::AddCustomContext("turbo_active_isa",
                              la::IsaName(la::ActiveIsa()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
