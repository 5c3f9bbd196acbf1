// Losses: binary cross-entropy for the detector, soft Dice for the
// localizer ("with feedback from dice accuracy, the model can refine its
// parameters", §3.2). They operate on `n` contiguous floats — one sample
// of a batched output — and write the gradient w.r.t. the prediction into
// a caller-owned slot (a nn::Tensor4 loss-grad sample), so the training
// hot path never allocates.
#pragma once

#include <cstddef>

namespace dl2f::nn {

/// Mean weighted binary cross-entropy over n elements; writes
/// dLoss/dPred into grad. Predictions are sigmoid outputs in (0,1);
/// values are clamped away from {0,1} for stability. `positive_weight`
/// scales the loss of target-1 elements — segmentation masks are heavily
/// class-imbalanced (a flooding route covers <10% of a 16x15 frame) and
/// an unweighted loss leaves the model in the all-zero basin for dozens
/// of epochs.
[[nodiscard]] float bce_loss_into(const float* prediction, const float* target, std::size_t n,
                                  float positive_weight, float* grad);

/// Soft Dice loss 1 - (2*sum(p*t) + eps) / (sum(p) + sum(t) + eps) over n
/// elements; ADDS weight * dLoss/dPred into grad (the localizer combines
/// it with a BCE gradient already staged there).
[[nodiscard]] float dice_loss_add(const float* prediction, const float* target, std::size_t n,
                                  float weight, float* grad);

/// Dice coefficient of the prediction binarized at `threshold` (strictly
/// above counts as positive) vs a binary target — a metric, not a loss;
/// the paper's "dice accuracy".
[[nodiscard]] double dice_score_raw(const float* prediction, const float* target, std::size_t n,
                                    float threshold = 0.5F);

}  // namespace dl2f::nn
