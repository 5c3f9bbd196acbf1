#include "nn/loss.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "common/rng.hpp"

namespace dl2f::nn {
namespace {

/// bce_loss_into's scalar loss (its gradient goes to a throwaway buffer).
float bce(const std::vector<float>& p, const std::vector<float>& t, float positive_weight = 1.0F) {
  std::vector<float> grad(p.size());
  return bce_loss_into(p.data(), t.data(), p.size(), positive_weight, grad.data());
}

/// dice_loss_add's scalar loss.
float dice(const std::vector<float>& p, const std::vector<float>& t) {
  std::vector<float> grad(p.size(), 0.0F);
  return dice_loss_add(p.data(), t.data(), p.size(), 1.0F, grad.data());
}

TEST(BceLoss, PerfectPredictionsNearZero) {
  EXPECT_LT(bce({0.9999F, 0.0001F}, {1.0F, 0.0F}), 1e-3F);
}

TEST(BceLoss, KnownValue) {
  EXPECT_NEAR(bce({0.5F}, {1.0F}), std::log(2.0F), 1e-5F);
}

TEST(BceLoss, PositiveWeightScalesOnlyTargetOneTerms) {
  // Mean over two elements: w*log(2) for the positive, log(2) for the
  // negative.
  EXPECT_NEAR(bce({0.5F, 0.5F}, {1.0F, 0.0F}, 8.0F), 9.0F * std::log(2.0F) / 2.0F, 1e-5F);
}

TEST(BceLoss, ClampsExtremePredictions) {
  const std::array<float, 1> p{0.0F};  // would be -log(0) = inf without clamping
  const std::array<float, 1> t{1.0F};
  std::array<float, 1> grad{};
  const float loss = bce_loss_into(p.data(), t.data(), 1, 1.0F, grad.data());
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_TRUE(std::isfinite(grad[0]));
}

TEST(BceLoss, GradientMatchesFiniteDifference) {
  Rng rng(3);
  std::vector<float> p(6), t(6);
  for (std::size_t i = 0; i < p.size(); ++i) {
    p[i] = static_cast<float>(rng.uniform(0.05, 0.95));
    t[i] = rng.bernoulli(0.5) ? 1.0F : 0.0F;
  }
  constexpr float kPositiveWeight = 3.0F;
  std::vector<float> grad(p.size(), 123.0F);  // overwritten, not accumulated
  (void)bce_loss_into(p.data(), t.data(), p.size(), kPositiveWeight, grad.data());
  constexpr float kEps = 1e-4F;
  for (std::size_t i = 0; i < p.size(); ++i) {
    std::vector<float> plus = p, minus = p;
    plus[i] += kEps;
    minus[i] -= kEps;
    const float numeric =
        (bce(plus, t, kPositiveWeight) - bce(minus, t, kPositiveWeight)) / (2 * kEps);
    EXPECT_NEAR(grad[i], numeric, 3e-2F);
  }
}

TEST(DiceLoss, PerfectMaskNearZero) {
  EXPECT_LT(dice({1, 0, 0, 1}, {1, 0, 0, 1}), 0.2F);  // eps-smoothed, not exactly 0
}

TEST(DiceLoss, DisjointMasksNearOne) {
  EXPECT_GT(dice({1, 0}, {0, 1}), 0.5F);
}

TEST(DiceLoss, GradientMatchesFiniteDifferenceAndAddsWeighted) {
  Rng rng(5);
  std::vector<float> p(4), t(4), staged(4);
  for (std::size_t i = 0; i < p.size(); ++i) {
    p[i] = static_cast<float>(rng.uniform(0.1, 0.9));
    t[i] = rng.bernoulli(0.5) ? 1.0F : 0.0F;
    staged[i] = static_cast<float>(rng.uniform(-1.0, 1.0));  // e.g. a BCE gradient
  }
  constexpr float kWeight = 0.5F;
  std::vector<float> grad = staged;
  (void)dice_loss_add(p.data(), t.data(), p.size(), kWeight, grad.data());
  constexpr float kEps = 1e-4F;
  for (std::size_t i = 0; i < p.size(); ++i) {
    std::vector<float> plus = p, minus = p;
    plus[i] += kEps;
    minus[i] -= kEps;
    const float numeric = (dice(plus, t) - dice(minus, t)) / (2 * kEps);
    EXPECT_NEAR(grad[i] - staged[i], kWeight * numeric, 1e-2F);
  }
}

TEST(DiceScore, MatchesSetFormula) {
  const std::array<float, 4> p{0.9F, 0.8F, 0.1F, 0.2F};  // binarized: {1,1,0,0}
  const std::array<float, 4> t{1, 0, 1, 0};
  // intersection 1, |P| 2, |T| 2 -> 2*1/4 = 0.5.
  EXPECT_DOUBLE_EQ(dice_score_raw(p.data(), t.data(), p.size()), 0.5);
}

TEST(DiceScore, EmptyBothIsOne) {
  const std::array<float, 3> p{}, t{};
  EXPECT_DOUBLE_EQ(dice_score_raw(p.data(), t.data(), p.size()), 1.0);
}

TEST(DiceScore, ThresholdMatters) {
  const std::array<float, 2> p{0.4F, 0.4F};
  const std::array<float, 2> t{1, 1};
  EXPECT_DOUBLE_EQ(dice_score_raw(p.data(), t.data(), p.size(), 0.5F), 0.0);
  EXPECT_DOUBLE_EQ(dice_score_raw(p.data(), t.data(), p.size(), 0.3F), 1.0);
  // Strictly above the threshold counts, as Frame::binarized binarizes.
  EXPECT_DOUBLE_EQ(dice_score_raw(p.data(), t.data(), p.size(), 0.4F), 0.0);
}

}  // namespace
}  // namespace dl2f::nn
