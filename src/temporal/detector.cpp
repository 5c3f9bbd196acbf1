#include "temporal/detector.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "nn/layers.hpp"

namespace dl2f::temporal {

TemporalDetector::TemporalDetector(const TemporalDetectorConfig& cfg) : cfg_(cfg) {
  assert(cfg.sequence_length >= 1 && cfg.sequence_length <= kMaxSequenceLength);
  const auto rows = cfg.mesh.rows();
  const auto cols = cfg.mesh.cols() - 1;
  model_.emplace<nn::TimeDistributedConv2D>(cfg.sequence_length, kChannelsPerWindow, cfg.filters,
                                            cfg.kernel, nn::Padding::Valid);
  model_.emplace<nn::ReLU>();
  model_.emplace<nn::MaxPool2D>(cfg.pool);
  model_.emplace<nn::Flatten>();
  // Flatten's channel-major layout is time-major here: TimeDistributedConv2D
  // emits channel t*filters+f, so each window's embedding is one contiguous
  // D-float block — exactly the (steps, in_dim) layout TemporalConv1D wants.
  model_.emplace<nn::TemporalConv1D>(cfg.sequence_length, embedding_dim(), cfg.temporal_filters,
                                     cfg.temporal_kernel);
  model_.emplace<nn::ReLU>();
  const auto out_steps = cfg.sequence_length - cfg.temporal_kernel + 1;
  model_.emplace<nn::Dense>(out_steps * cfg.temporal_filters, 1);
  model_.emplace<nn::Sigmoid>();
  (void)rows;
  (void)cols;
}

nn::Tensor3 TemporalDetector::input_shape() const {
  return nn::Tensor3(cfg_.sequence_length * kChannelsPerWindow, cfg_.mesh.rows(),
                     cfg_.mesh.cols() - 1);
}

std::int32_t TemporalDetector::embedding_dim() const noexcept {
  const auto conv_h = cfg_.mesh.rows() - cfg_.kernel + 1;
  const auto conv_w = (cfg_.mesh.cols() - 1) - cfg_.kernel + 1;
  return cfg_.filters * (conv_h / cfg_.pool) * (conv_w / cfg_.pool);
}

void TemporalDetector::preprocess_into(monitor::SequenceView seq, nn::Tensor4& batch,
                                       std::int32_t slot) const {
  const auto rows = cfg_.mesh.rows();
  const auto cols = cfg_.mesh.cols() - 1;
  const auto hw = static_cast<std::size_t>(rows * cols);
  const auto per_window = static_cast<std::size_t>(kChannelsPerWindow) * hw;
  assert(std::cmp_equal(seq.size(), cfg_.sequence_length));
  assert(batch.sample_size() == seq.size() * per_window);
  float* dst = batch.sample(slot);

  // Pass 1, per window: VCO channels 0-3 verbatim, RAW gained pressure rate
  // into the channel-4 slot, RAW gained source-rate plane into the
  // channel-6 slot.
  for (std::size_t t = 0; t < seq.size(); ++t) {
    const monitor::FrameSample& s = *seq[t];
    float* win = dst + t * per_window;
    std::size_t off = 0;
    for (Direction d : kMeshDirections) {
      const auto& data = monitor::frame_of(s.vco, d).data();
      assert(data.size() == hw);
      std::copy(data.begin(), data.end(), win + off);
      off += hw;
    }
    pressure_rate_into(s, win + 4 * hw, hw);
    for (std::size_t i = 0; i < hw; ++i) (win + 4 * hw)[i] *= kPressureGain;
    sources_rate_into(s, cfg_.mesh, win + 6 * hw, hw);
  }

  // Pass 2, timesteps DESCENDING: channel 5 is the signed delta between
  // this window's and the previous window's raw pressure rates, and
  // channel 7 the same trend over the raw source rates; then the raw
  // channel-4 and channel-6 slots are squashed in place. Descending order
  // means window t-1's slots still hold the raw rates when window t's
  // deltas read them — no scratch planes needed.
  for (std::size_t t = seq.size(); t-- > 0;) {
    float* win = dst + t * per_window;
    float* rate = win + 4 * hw;
    float* delta = win + 5 * hw;
    float* src_rate = win + 6 * hw;
    float* src_trend = win + 7 * hw;
    const float* prev = t > 0 ? dst + (t - 1) * per_window + 4 * hw : rate;
    const float* src_prev = t > 0 ? dst + (t - 1) * per_window + 6 * hw : src_rate;
    for (std::size_t i = 0; i < hw; ++i) delta[i] = squash_signed(rate[i] - prev[i]);
    for (std::size_t i = 0; i < hw; ++i) src_trend[i] = squash_signed(src_rate[i] - src_prev[i]);
    for (std::size_t i = 0; i < hw; ++i) rate[i] = squash(rate[i]);
    for (std::size_t i = 0; i < hw; ++i) src_rate[i] = squash(src_rate[i]);
  }
}

nn::Tensor3 TemporalDetector::preprocess(monitor::SequenceView seq) const {
  nn::Tensor3 shape = input_shape();
  nn::Tensor4 staged(1, shape.channels(), shape.height(), shape.width());
  preprocess_into(seq, staged, 0);
  nn::Tensor3 out(shape.channels(), shape.height(), shape.width());
  out.data().assign(staged.data().begin(), staged.data().end());
  return out;
}

}  // namespace dl2f::temporal
