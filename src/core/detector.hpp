// Stage i of DL2Fence: the DoS Detector — a CNN classifier over the four
// directional feature frames (Fig. 2, left).
//
// Architecture (for an R x R mesh, frames R x (R-1)):
//   Input 4ch R x (R-1)
//   -> Conv2D(3x3, 8 filters, valid) + ReLU     -> 8ch (R-2) x (R-3)
//   -> MaxPool2D(2x2)                           -> 8ch floor/2
//   -> Flatten -> Dense(1) -> Sigmoid           -> P(DoS)
//
// For R = 16 this reproduces the paper's printed shapes: conv output
// 14 x 13 x 8 and pooled output 7 x 6 x 8 ("(R-9) x (R-10) x 8").
#pragma once

#include "common/metrics.hpp"
#include "core/feature.hpp"
#include "monitor/dataset.hpp"
#include "nn/layers.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"

namespace dl2f::core {

struct DetectorConfig {
  MeshShape mesh = MeshShape::square(16);
  Feature feature = Feature::Vco;
  std::int32_t kernel = 3;
  std::int32_t filters = 8;
  std::int32_t pool = 2;
  float threshold = 0.5F;  ///< sigmoid output above this flags DoS
};

class DoSDetector {
 public:
  explicit DoSDetector(const DetectorConfig& cfg);

  [[nodiscard]] const DetectorConfig& config() const noexcept { return cfg_; }

  /// Stack the configured feature's four directional frames as channels;
  /// BOC inputs are normalized by the global max across all four frames so
  /// inter-direction contrast survives.
  [[nodiscard]] nn::Tensor3 preprocess(const monitor::FrameSample& sample) const;

  /// Allocation-free preprocess of one window into slot `slot` of a
  /// staged input batch. Identical values to preprocess().
  void preprocess_into(const monitor::FrameSample& sample, nn::Tensor4& batch,
                       std::int32_t slot) const;

  /// CNN input shape: kNumMeshDirections channels of R x (R-1) frames.
  [[nodiscard]] nn::Tensor3 input_shape() const {
    return nn::Tensor3(static_cast<std::int32_t>(kNumMeshDirections), cfg_.mesh.rows(),
                       cfg_.mesh.cols() - 1);
  }

  [[nodiscard]] nn::Sequential& model() noexcept { return model_; }
  [[nodiscard]] const nn::Sequential& model() const noexcept { return model_; }

 private:
  DetectorConfig cfg_;
  nn::Sequential model_;
};

struct TrainConfig {
  std::int32_t epochs = 30;
  std::int32_t batch_size = 8;
  float learning_rate = 1e-3F;
  std::uint64_t seed = 42;
  bool verbose = false;
  /// Data-parallel training workers (nn::batch_train). Trained weights are
  /// byte-identical for a given seed at ANY thread count — the gradient
  /// reduction runs over fixed-size slices in fixed order.
  std::int32_t threads = 1;
};

struct TrainReport {
  float final_loss = 0.0F;
  std::int32_t epochs_run = 0;
};

/// Mini-batch Adam training with BCE loss on the attack label, on the
/// batched GEMM path (nn::batch_train): minibatches packed into Tensor4,
/// per-layer forward_batch/backward_batch, deterministic sliced gradient
/// reduction across cfg.threads workers.
TrainReport train_detector(DoSDetector& detector, const monitor::Dataset& data,
                           const TrainConfig& cfg);

/// Detection confusion matrix over a dataset (batched scoring through
/// nn::infer_items; a window is flagged when its probability exceeds
/// DetectorConfig::threshold).
[[nodiscard]] ConfusionMatrix evaluate_detector(const DoSDetector& detector,
                                                const monitor::Dataset& data);

}  // namespace dl2f::core
