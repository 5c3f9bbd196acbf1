// Numerical gradient checking: the backbone correctness property of the
// from-scratch NN library. For every layer type we compare analytic
// gradients (backward) against central finite differences of a scalar
// loss, for both inputs and parameters.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>

#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/model.hpp"

namespace dl2f::nn {
namespace {

/// Scalar objective: 0.5 * sum(out^2); its gradient w.r.t. out is out.
float objective(const Tensor3& out) {
  float s = 0;
  for (float v : out.data()) s += 0.5F * v * v;
  return s;
}

/// Check d(objective)/d(input) and d(objective)/d(params) for a layer.
void check_layer(Layer& layer, Tensor3 input, float tol = 2e-2F) {
  Rng rng(1234);
  layer.init_weights(rng);
  for (float& v : input.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  // Analytic gradients.
  const Tensor3 out = layer.forward(input);
  Tensor3 grad_out = out;  // d(0.5*sum(out^2))/d(out) = out
  for (auto* p : layer.params()) p->zero_grad();
  const Tensor3 grad_in = layer.backward(grad_out);

  constexpr float kEps = 1e-3F;
  // Input gradients.
  for (std::size_t i = 0; i < input.size(); ++i) {
    Tensor3 plus = input, minus = input;
    plus.data()[i] += kEps;
    minus.data()[i] -= kEps;
    const float numeric =
        (objective(layer.forward(plus)) - objective(layer.forward(minus))) / (2 * kEps);
    EXPECT_NEAR(grad_in.data()[i], numeric, tol) << layer.name() << " input grad " << i;
  }
  // Parameter gradients.
  for (auto* p : layer.params()) {
    for (std::size_t i = 0; i < p->size(); ++i) {
      const float saved = p->value[i];
      p->value[i] = saved + kEps;
      const float up = objective(layer.forward(input));
      p->value[i] = saved - kEps;
      const float down = objective(layer.forward(input));
      p->value[i] = saved;
      const float numeric = (up - down) / (2 * kEps);
      EXPECT_NEAR(p->grad[i], numeric, tol) << layer.name() << " param grad " << i;
    }
  }
}

TEST(GradCheck, Conv2DValid) {
  Conv2D conv(2, 3, 3, Padding::Valid);
  check_layer(conv, Tensor3(2, 5, 5));
}

TEST(GradCheck, Conv2DSame) {
  Conv2D conv(1, 2, 3, Padding::Same);
  check_layer(conv, Tensor3(1, 4, 5));
}

TEST(GradCheck, Dense) {
  Dense dense(6, 3);
  check_layer(dense, Tensor3(6, 1, 1));
}

TEST(GradCheck, SigmoidLayer) {
  Sigmoid sig;
  check_layer(sig, Tensor3(1, 3, 3));
}

TEST(GradCheck, FlattenLayer) {
  Flatten flat;
  check_layer(flat, Tensor3(2, 3, 2));
}

TEST(GradCheck, DepthwiseSeparable) {
  DepthwiseSeparableConv2D dsc(2, 3, 3);
  check_layer(dsc, Tensor3(2, 4, 4));
}

TEST(GradCheck, MaxPoolAwayFromTies) {
  // Finite differences are only valid where the argmax is stable; use
  // well-separated values.
  MaxPool2D pool(2);
  Tensor3 in(1, 4, 4);
  Rng rng(7);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in.data()[i] = static_cast<float>(i) + static_cast<float>(rng.uniform(0.0, 0.3));
  }
  const auto out = pool.forward(in);
  const Tensor3 grad_in = pool.backward(out);
  constexpr float kEps = 1e-3F;
  for (std::size_t i = 0; i < in.size(); ++i) {
    Tensor3 plus = in, minus = in;
    plus.data()[i] += kEps;
    minus.data()[i] -= kEps;
    const float numeric =
        (objective(pool.forward(plus)) - objective(pool.forward(minus))) / (2 * kEps);
    EXPECT_NEAR(grad_in.data()[i], numeric, 2e-2F);
  }
}

TEST(GradCheck, WholeDetectorStack) {
  // Conv -> ReLU -> Pool -> Flatten -> Dense -> Sigmoid end-to-end, with
  // BCE at the top, against finite differences of the full loss. ReLU's
  // kink makes gradients nondifferentiable at 0; random inputs make exact
  // zeros measure-zero events.
  Sequential model;
  model.emplace<Conv2D>(2, 4, 3, Padding::Valid);
  model.emplace<ReLU>();
  model.emplace<MaxPool2D>(2);
  model.emplace<Flatten>();
  model.emplace<Dense>(4 * 2 * 2, 1);
  model.emplace<Sigmoid>();

  Rng rng(99);
  model.init_weights(rng);
  Tensor3 input(2, 7, 7);
  for (float& v : input.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  Tensor3 target(1, 1, 1);
  target.data()[0] = 1.0F;

  // BCE at the output buffer, as the trainers compute it.
  Tensor3 grad(1, 1, 1);
  const auto loss = [&](const Tensor3& out) {
    return bce_loss_into(out.data().data(), target.data().data(), out.size(), 1.0F,
                         grad.data().data());
  };

  model.zero_grad();
  (void)loss(model.forward(input));
  model.backward(grad);

  constexpr float kEps = 1e-3F;
  for (auto* p : model.params()) {
    for (std::size_t i = 0; i < p->size(); i += 7) {  // sample every 7th weight
      const float saved = p->value[i];
      p->value[i] = saved + kEps;
      const float up = loss(model.forward(input));
      p->value[i] = saved - kEps;
      const float down = loss(model.forward(input));
      p->value[i] = saved;
      EXPECT_NEAR(p->grad[i], (up - down) / (2 * kEps), 5e-2F);
    }
  }
}

}  // namespace
}  // namespace dl2f::nn
