// train: HAG full-batch training (GnnTrainer::Fit) on a fixed prepared
// dataset. The only workload that runs autograd and the scalar
// la::MatMul; it shares the inference kernels with serve, so the pair
// separates training-only gains from shared ones.
//
// The timed loop calls Fit for kEpochsPerFit epochs at a time, training
// on from the previous call, until the run's time is spent; each call
// gives one per-epoch sample (Fit wall / epochs), so Fit's own set-up
// (targets, sample weights, a fresh Adam) is spread over its epochs.
// Check: the training loss falls and the trained model's test AUC clears
// a floor.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "autograd/optimizer.h"
#include "common.h"
#include "core/turbo.h"
#include "la/kernel_dispatch.h"
#include "metrics/metrics.h"
#include "ml/model.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace turbo;

constexpr int kEpochsPerFit = 10;
// The floor sits well below what a trained HAG reaches on this fixture,
// so a healthy run never trips it, and well above the 0.5 of a model
// whose gradients are broken.
constexpr double kAucFloor = 0.7;

struct TrainSize {
  int users = 600;
};

struct TrainStack {
  std::unique_ptr<core::PreparedData> data;
  gnn::GraphBatch train_batch;
  std::vector<int> train_labels;
  std::unique_ptr<core::Hag> model;
};

gnn::TrainConfig FitConfig(uint64_t seed) {
  gnn::TrainConfig cfg;
  cfg.epochs = kEpochsPerFit;
  cfg.lr = 2e-3f;
  cfg.seed = seed;
  return cfg;
}

/// The dataset is a fixed fixture; --seed picks the model's initial
/// weights and the training RNG stream.
std::unique_ptr<TrainStack> BuildStack(const TrainSize& size, uint64_t seed) {
  auto s = std::make_unique<TrainStack>();
  // D1's 1.4% fraud rate leaves a 600-user test split with two or three
  // positives, too few for a stable AUC; 15% gives it about twenty.
  auto scenario = datagen::ScenarioConfig::D1Like(size.users);
  scenario.fraud_rate = 0.15;
  s->data = core::PrepareData(datagen::GenerateScenario(scenario),
                              core::PipelineConfig{});
  s->train_batch =
      core::MakeBatch(*s->data, s->data->train_uids, bn::SamplerConfig{});
  s->train_labels = s->data->LabelsFor(s->data->train_uids);
  s->model =
      std::make_unique<core::Hag>(BenchHagConfig(MixSeeds(seed, 0x7a1)));
  s->model->Init(static_cast<int>(s->data->features.cols()));
  return s;
}

/// Epochs as Fit runs them, stage by stage, with one persistent Adam,
/// for `seconds`. Even epochs run untraced and odd ones traced, so the
/// two sets of epoch walls give the tracing overhead of the same loop.
void DecomposedEpochs(TrainStack* s, uint64_t seed, double seconds,
                      Tracer* tracer, std::vector<double>* untraced_ms,
                      std::vector<double>* traced_ms) {
  const auto& batch = s->train_batch;
  const double wpos = ml::BalancedPositiveWeight(s->train_labels);
  la::Matrix targets(batch.num_nodes(), 1);
  la::Matrix sample_w(batch.num_nodes(), 1);
  for (size_t i = 0; i < s->train_labels.size(); ++i) {
    targets(i, 0) = static_cast<float>(s->train_labels[i]);
    sample_w(i, 0) = s->train_labels[i] != 0 ? static_cast<float>(wpos) : 1.0f;
  }
  const gnn::TrainConfig cfg = FitConfig(seed);
  ag::Adam opt(s->model->Params(), cfg.lr, 0.9f, 0.999f, 1e-8f,
               cfg.weight_decay);
  Rng rng(cfg.seed);
  const auto start = Clock::now();
  for (int epoch = 0; epoch < 2 || MillisSince(start) < seconds * 1e3;
       ++epoch) {
    Tracer* tr = epoch % 2 == 1 ? tracer : nullptr;
    const auto e0 = Clock::now();
    {
      Span sp(tr, "autograd.optimizer");
      opt.ZeroGrad();
    }
    ag::Tensor loss;
    {
      Span sp(tr, "autograd.forward");
      ag::Tensor logits = s->model->Logits(batch, /*training=*/true, &rng);
      loss = ag::BceWithLogits(logits, targets, sample_w);
    }
    {
      Span sp(tr, "autograd.backward");
      ag::Backward(loss);
    }
    {
      Span sp(tr, "autograd.optimizer");
      opt.ClipGradNorm(cfg.clip_norm);
      opt.Step();
    }
    (tr != nullptr ? traced_ms : untraced_ms)->push_back(MillisSince(e0));
  }
}

/// Median wall of `reps` calls of `f`.
template <typename F>
double MedianCallMs(int reps, F&& f) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    f();
    ms.push_back(MillisSince(t0));
  }
  return Median(ms);
}

}  // namespace

int RunTrain(const Options& opts, Result* result) {
  TrainSize size;
  if (opts.tiny) size.users = 400;
  PrintEnvironment(opts, {{"la_kernel_threads", "1"},
                          {"users", std::to_string(size.users)},
                          {"epochs_per_fit", std::to_string(kEpochsPerFit)}});

  std::unique_ptr<TrainStack> stack;
  HostSpeed speed;
  const double setup_s = MedianSetupSeconds(
      &speed,
      [&] {
        stack.reset();
        ReleaseFreedMemory();
      },
      [&] { stack = BuildStack(size, opts.seed); },
      opts.MinSetups());

  // Host-speed samples between Fit calls: half a neighborhood each, so
  // every call is rescaled by the samples just before and after it.
  constexpr int kSpeedReps = HostSpeed::kNeighbors / 2;
  gnn::GnnTrainer trainer(FitConfig(opts.seed));
  std::vector<Timed> fits;
  std::vector<double> losses;
  const double fit_s = opts.trace ? opts.seconds * 0.5 : opts.seconds;
  const auto start = Clock::now();
  while (fits.size() < 3 || MillisSince(start) < fit_s * 1e3) {
    speed.Sample(kSpeedReps);
    const auto t0 = Clock::now();
    losses.push_back(trainer.Fit(stack->model.get(), stack->train_batch,
                                 stack->train_labels));
    fits.push_back({t0, MillisSince(t0)});
  }
  speed.Sample(kSpeedReps);
  std::vector<double> epoch_ms = Rescaled(speed, fits);
  for (double& ms : epoch_ms) ms /= kEpochsPerFit;
  const double total_epochs =
      static_cast<double>(fits.size()) * kEpochsPerFit;
  result->Attempt(static_cast<uint64_t>(total_epochs));

  Tracer tracer;
  std::vector<double> untraced_epoch_ms, traced_epoch_ms;
  if (opts.trace) {
    DecomposedEpochs(stack.get(), opts.seed, opts.seconds * 0.4, &tracer,
                     &untraced_epoch_ms, &traced_epoch_ms);
  }

  // Check on the trained model: loss fell from the first call to the
  // last, and the test split scores well.
  const auto test_batch =
      core::MakeBatch(*stack->data, stack->data->test_uids,
                      bn::SamplerConfig{});
  const auto scores = gnn::GnnTrainer::PredictTargetsInference(*stack->model,
                                                               test_batch);
  const double auc =
      metrics::RocAuc(scores, stack->data->LabelsFor(stack->data->test_uids));
  const double floor = result->Breaking("train.test_auc") ? 1.01 : kAucFloor;
  const double first_loss =
      result->Breaking("train.loss_falls") ? -1.0 : losses.front();
  char detail[128];
  std::snprintf(detail, sizeof(detail),
                "test AUC %.4f (floor %.2f) after %.0f epochs",
                auc, floor,
                total_epochs + untraced_epoch_ms.size() +
                    traced_epoch_ms.size());
  result->Check("train.test_auc", auc >= floor, detail);
  std::snprintf(detail, sizeof(detail), "loss %.4f -> %.4f", first_loss,
                losses.back());
  result->Check("train.loss_falls", losses.back() < first_loss, detail);

  std::vector<double> wall_epoch_ms = WallMs(fits);
  for (double& ms : wall_epoch_ms) ms /= kEpochsPerFit;
  std::printf("# train: %zu Fit calls x %d epochs, epoch p50 %.3f ms, "
              "p90 %.3f ms\n",
              fits.size(), kEpochsPerFit, Median(epoch_ms),
              Percentile(epoch_ms, 0.9));
  PrintWall(speed, Median(wall_epoch_ms), Percentile(wall_epoch_ms, 0.9),
            1e3 / Mean(wall_epoch_ms));
  if (!opts.trace) {
    result->Metric("setup_s", setup_s, "s");
    result->Metric("p50_ms", Median(epoch_ms), "ms");
    result->Metric("tail_ms", Percentile(epoch_ms, 0.9), "ms");
    result->Metric("throughput_per_s", 1e3 / Mean(epoch_ms), "1/s");
    return 0;
  }
  // Per-layer figures are wall times of the traced epochs.
  const double n =
      static_cast<double>(std::max<size_t>(traced_epoch_ms.size(), 1));
  const double fwd = tracer.Total("autograd.forward") / n;
  const double bwd = tracer.Total("autograd.backward") / n;
  const double opt = tracer.Total("autograd.optimizer") / n;
  result->Metric("autograd.forward_ms", fwd, "ms");
  result->Metric("autograd.backward_ms", bwd, "ms");
  result->Metric("autograd.optimizer_ms", opt, "ms");
  result->Metric("train.layer_sum_ratio",
                 (fwd + bwd + opt) / Median(wall_epoch_ms), "ratio");
  result->Metric("trace.overhead_ratio",
                 Median(traced_epoch_ms) / Median(untraced_epoch_ms) - 1.0,
                 "ratio");

  // GEMM at the first HAG layer's training shape, on both stacks.
  Rng rng(MixSeeds(opts.seed, 0x6e));
  const auto& x = stack->train_batch.features;
  const la::Matrix w = la::Matrix::Glorot(x.cols(), 48, &rng);
  result->Metric("la.train_gemm_ms",
                 MedianCallMs(15, [&] { la::Matrix y = la::MatMul(x, w); }),
                 "ms");
  result->Metric("la.dispatch_gemm_ms",
                 MedianCallMs(15,
                              [&] {
                                la::Matrix y = la::dispatch::MatMul(x, w);
                              }),
                 "ms");
  std::printf("# layer shares of a training epoch (train, %zu x %zu input):\n",
              x.rows(), x.cols());
  for (const auto& [name, v] : {std::pair{"autograd.forward", fwd},
                                std::pair{"autograd.backward", bwd},
                                std::pair{"autograd.optimizer", opt}}) {
    std::printf("#   %-20s %8.3f ms  %5.1f%%\n", name, v,
                100.0 * v / (fwd + bwd + opt));
  }
  return 0;
}

}  // namespace perfbench
