#include "core/localizer.hpp"

#include <algorithm>
#include <cassert>
#include <iostream>

#include "nn/loss.hpp"
#include "nn/train.hpp"

namespace dl2f::core {

DoSLocalizer::DoSLocalizer(const LocalizerConfig& cfg) : cfg_(cfg) {
  assert(cfg.conv_layers >= 2);
  std::int32_t in_ch = 1;
  for (std::int32_t l = 0; l + 1 < cfg.conv_layers; ++l) {
    if (cfg.depthwise_separable && in_ch > 1) {
      // Depthwise-separable interior blocks (MobileNet extension, §6).
      // The first layer stays a standard conv: with one input channel a
      // DS block degenerates and loses cross-pixel mixing capacity.
      model_.emplace<nn::DepthwiseSeparableConv2D>(in_ch, cfg.filters, cfg.kernel);
    } else {
      model_.emplace<nn::Conv2D>(in_ch, cfg.filters, cfg.kernel, nn::Padding::Same);
    }
    model_.emplace<nn::ReLU>();
    in_ch = cfg.filters;
  }
  model_.emplace<nn::Conv2D>(in_ch, 1, cfg.kernel, nn::Padding::Same);
  model_.emplace<nn::Sigmoid>();
}

nn::Tensor3 DoSLocalizer::preprocess(const Frame& frame) const {
  if (cfg_.feature == Feature::Boc) {
    return nn::Tensor3::from_frame(frame.normalized());
  }
  return nn::Tensor3::from_frame(frame);
}

void DoSLocalizer::preprocess_into(const Frame& frame, nn::Tensor4& batch,
                                   std::int32_t slot) const {
  const auto& data = frame.data();
  assert(data.size() == batch.sample_size());
  float* dst = batch.sample(slot);
  std::copy(data.begin(), data.end(), dst);
  if (cfg_.feature == Feature::Boc) {
    // Per-frame max normalization, as Frame::normalized() does.
    const float m = frame.max_value();
    if (m > 0.0F) {
      for (std::size_t i = 0; i < data.size(); ++i) dst[i] /= m;
    }
  }
}

namespace {

/// One localizer training item per (sample, direction) pair.
struct LocalizerItem {
  const Frame* input;
  const Frame* mask;
};

/// Every sample's four directional frames in sample-major order, or only
/// the attack samples' when `attack_only` is set.
std::vector<LocalizerItem> localizer_items(const DoSLocalizer& localizer,
                                           const monitor::Dataset& data, bool attack_only) {
  std::vector<LocalizerItem> items;
  const auto feature = localizer.config().feature;
  for (const auto& s : data.samples) {
    if (attack_only && !s.under_attack) continue;
    const auto& frames = feature == Feature::Vco ? s.vco : s.boc;
    for (Direction d : kMeshDirections) {
      items.push_back(
          LocalizerItem{&monitor::frame_of(frames, d), &monitor::frame_of(s.port_truth, d)});
    }
  }
  return items;
}

}  // namespace

LocalizerTrainReport train_localizer(DoSLocalizer& localizer, const monitor::Dataset& data,
                                     const LocalizerTrainConfig& cfg) {
  Rng rng(cfg.seed);
  localizer.model().init_weights(rng);
  nn::Adam optimizer(localizer.model().params(), cfg.learning_rate);
  const std::vector<LocalizerItem> items =
      localizer_items(localizer, data, /*attack_only=*/false);

  nn::BatchTrainConfig bt;
  bt.epochs = cfg.epochs;
  bt.batch_size = cfg.batch_size;
  bt.threads = cfg.threads;

  LocalizerTrainReport report;
  const auto stage = [&](std::size_t item, nn::Tensor4& input, std::int32_t slot) {
    localizer.preprocess_into(*items[item].input, input, slot);
  };
  const auto loss = [&](std::size_t item, const float* pred, std::size_t n,
                        float* grad) -> nn::ItemLoss {
    const float* target = items[item].mask->data().data();
    nn::ItemLoss r;
    r.loss = nn::bce_loss_into(pred, target, n, cfg.positive_weight, grad);
    r.loss += cfg.dice_weight * nn::dice_loss_add(pred, target, n, cfg.dice_weight, grad);
    r.metric = nn::dice_score_raw(pred, target, n);
    return r;
  };
  const auto on_epoch = [&](std::int32_t epoch, float mean_loss, double mean_dice) {
    report.final_loss = mean_loss;
    report.final_dice = mean_dice;
    ++report.epochs_run;
    if (cfg.verbose) {
      std::cout << "localizer epoch " << epoch << " loss " << mean_loss << " dice " << mean_dice
                << '\n';
    }
  };
  nn::batch_train(localizer.model(), optimizer, localizer.input_shape(), items.size(), stage,
                  loss, bt, rng, on_epoch);
  return report;
}

double evaluate_localizer_dice(const DoSLocalizer& localizer, const monitor::Dataset& data) {
  const std::vector<LocalizerItem> items =
      localizer_items(localizer, data, /*attack_only=*/true);
  const float threshold = localizer.config().threshold;
  double total = 0.0;
  const auto stage = [&](std::size_t item, nn::Tensor4& input, std::int32_t slot) {
    localizer.preprocess_into(*items[item].input, input, slot);
  };
  const auto read = [&](std::size_t item, const float* out, std::size_t n) {
    total += nn::dice_score_raw(out, items[item].mask->data().data(), n, threshold);
  };
  nn::infer_items(localizer.model(), localizer.input_shape(), items.size(), stage, read);
  return items.empty() ? 1.0 : total / static_cast<double>(items.size());
}

}  // namespace dl2f::core
