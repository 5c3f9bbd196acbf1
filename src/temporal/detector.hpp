// Temporal DoS detection head: classify a SEQUENCE of monitoring windows.
//
// Architecture (mirrors the single-window DoSDetector's conv->pool->dense
// shape, then adds a conv-over-time stage):
//
//   TimeDistributedConv2D(T, 8ch -> filters, k, Valid)   weights shared
//   ReLU                                                 across timesteps
//   MaxPool2D(pool)                                      (spatial only)
//   Flatten          -> T contiguous per-window embeddings, time-major
//   TemporalConv1D(T, D -> temporal_filters, kt)         conv over time
//   ReLU
//   Dense((T - kt + 1) * temporal_filters, 1)
//   Sigmoid
//
// Input is (T * 8, rows, cols-1): each window contributes 8 channels —
//   0..3  raw directional VCO frames (same planes the DoSDetector sees),
//   4     squashed aggregate BOC pressure rate,
//   5     signed squashed pressure-rate DELTA vs the previous window in the
//         sequence (zero at the first position — and across any warmup
//         padding, since padded windows repeat the oldest live window),
//   6     squashed per-source injection-demand plane (cross-source view),
//   7     signed squashed per-source rate-trend: the windowed slope of the
//         RAW (pre-squash) source-rate plane vs the previous window. A
//         stealth ramp is engineered to sit under every per-window
//         threshold, but its ramp slope is a *constant positive* value
//         here, window after window — exactly the persistence the
//         conv-over-time stage integrates. Zero at the first position and
//         across warmup padding, like channel 5.
//
// Channels 0, 1, 2, 3, 4 and 6 are pure functions of ONE window, so a
// window's feature planes are bitwise identical whether computed inside a
// sequence or in isolation (tests/window_history_test.cpp pins this); only
// channels 5 and 7 read a neighbor. All compute flows through the shared Layer /
// Tensor4 / GEMM stack, so the batched-vs-reference bitwise contract and
// the any-thread-count training determinism carry over unchanged.
#pragma once

#include <cstdint>

#include "common/geometry.hpp"
#include "common/rng.hpp"
#include "monitor/window_history.hpp"
#include "nn/model.hpp"
#include "temporal/features.hpp"

namespace dl2f::temporal {

/// Feature channels each window contributes to the sequence tensor.
inline constexpr std::int32_t kChannelsPerWindow = 8;

/// Upper bound on TemporalDetectorConfig::sequence_length — lets callers
/// stage sequence views through fixed stack buffers.
inline constexpr std::int32_t kMaxSequenceLength = 16;

struct TemporalDetectorConfig {
  MeshShape mesh = MeshShape::square(8);
  /// Windows per classified sequence (T).
  std::int32_t sequence_length = 4;
  /// Spatial conv kernel / filter count / pool, as in DetectorConfig.
  std::int32_t kernel = 3;
  std::int32_t filters = 8;
  std::int32_t pool = 2;
  /// Conv-over-time kernel width (kt) and filter count.
  std::int32_t temporal_kernel = 2;
  std::int32_t temporal_filters = 16;
  /// Sequence-verdict gate. Slightly stricter than the single-window
  /// detector's 0.5: the pipeline ORs this verdict into a path that
  /// already catches overt floods, so the head only needs to fire on
  /// sequences it is confident about — a loose gate here taxes the static
  /// families' precision for no recall gain.
  float threshold = 0.6F;
  /// Colluding-source localization assist (see features.hpp).
  SuspectConfig suspects;
};

class TemporalDetector {
 public:
  explicit TemporalDetector(const TemporalDetectorConfig& cfg);

  [[nodiscard]] const TemporalDetectorConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] nn::Sequential& model() noexcept { return model_; }
  [[nodiscard]] const nn::Sequential& model() const noexcept { return model_; }

  /// Shape of one preprocessed sequence: (T * 8, rows, cols - 1).
  [[nodiscard]] nn::Tensor3 input_shape() const;

  /// Flattened per-window embedding width D after conv/pool (the
  /// TemporalConv1D input dimension).
  [[nodiscard]] std::int32_t embedding_dim() const noexcept;

  /// Stage one sequence (exactly sequence_length windows, oldest first)
  /// into batch sample `slot`. Allocation-free.
  void preprocess_into(monitor::SequenceView seq, nn::Tensor4& batch, std::int32_t slot) const;

  /// Allocating single-sequence variant (reference path, tests).
  [[nodiscard]] nn::Tensor3 preprocess(monitor::SequenceView seq) const;

 private:
  TemporalDetectorConfig cfg_;
  nn::Sequential model_;
};

/// Training knobs, mirroring core::TrainConfig. Defined here (not reusing
/// core::TrainConfig) so src/temporal never includes src/core — the
/// pipeline layer includes this header, not the other way around.
struct TemporalTrainConfig {
  std::int32_t epochs = 30;
  std::int32_t batch_size = 8;
  float learning_rate = 1e-3F;
  /// BCE weight on benign sequences (attack sequences weigh 1.0). Keep
  /// near 1: the adversarial grid is already roughly class-balanced once
  /// the mitigation tail is mixed in, and overweighting benign measurably
  /// trades evasive-family recall for no static-precision gain.
  float benign_weight = 1.0F;
  std::uint64_t seed = 42;
  bool verbose = false;
  /// Worker threads for batched training; results are byte-identical at
  /// any value (nn::batch_train's fixed-order gradient reduction).
  std::int32_t threads = 1;
};

struct TemporalTrainReport {
  float final_loss = 0.0F;
  std::int32_t epochs_run = 0;
};

}  // namespace dl2f::temporal
