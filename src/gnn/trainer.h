// Shared training / inference harness for all GNNs.
//
// Training is "full-batch over the training computation subgraph": the
// batch contains every training target plus its sampled neighborhood, the
// loss is masked to the target rows, positives are up-weighted. Inference
// is inductive: any batch (e.g. a single user's sampled subgraph at
// serving time) can be scored without retraining.
#pragma once

#include <vector>

#include "gnn/model.h"
#include "util/rng.h"

namespace turbo::gnn {

struct TrainConfig {
  int epochs = 80;
  float lr = 5e-4f;          // paper's Adam learning rate
  float weight_decay = 1e-5f;
  float clip_norm = 5.0f;
  /// <= 0 means auto (neg/pos ratio over training targets).
  double positive_weight = -1.0;
  uint64_t seed = 17;
  bool verbose = false;
};

class GnnTrainer {
 public:
  explicit GnnTrainer(TrainConfig cfg = {}) : cfg_(cfg) {}

  /// Trains `model` on `batch`; `labels[i]` labels target row i
  /// (labels.size() == batch.num_targets). Returns final training loss.
  double Fit(GnnModel* model, const GraphBatch& batch,
             const std::vector<int>& labels);

  /// Sigmoid(logits) for the batch's target rows, from the model's one
  /// forward run under ag::NoGradScope. Safe to call concurrently on a
  /// shared model. This is what the serving path calls.
  static std::vector<double> PredictTargets(const GnnModel& model,
                                            const GraphBatch& batch);

  /// Sigmoid(logits) for every node in the batch (also no-grad).
  static std::vector<double> PredictAll(const GnnModel& model,
                                        const GraphBatch& batch);

  /// Alias of PredictTargets, kept for callers that predate the single
  /// forward (perfbench/cc).
  static std::vector<double> PredictTargetsInference(const GnnModel& model,
                                                     const GraphBatch& batch);

 private:
  TrainConfig cfg_;
};

}  // namespace turbo::gnn
