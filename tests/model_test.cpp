#include "nn/model.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"

namespace dl2f::nn {
namespace {

Sequential make_tiny_model() {
  Sequential m;
  m.emplace<Conv2D>(1, 2, 3, Padding::Same);
  m.emplace<ReLU>();
  m.emplace<Flatten>();
  m.emplace<Dense>(2 * 4 * 4, 1);
  m.emplace<Sigmoid>();
  return m;
}

TEST(Sequential, ShapePropagation) {
  Sequential m = make_tiny_model();
  const auto out = m.output_shape(Tensor3(1, 4, 4));
  EXPECT_EQ(out.channels(), 1);
  EXPECT_EQ(out.height(), 1);
  EXPECT_EQ(out.width(), 1);
}

TEST(Sequential, ParamCountSumsLayers) {
  Sequential m = make_tiny_model();
  // Conv: 1*2*9 + 2 = 20; Dense: 32 + 1 = 33.
  EXPECT_EQ(m.param_count(), 53U);
  EXPECT_EQ(m.layer_count(), 5U);
}

TEST(Sequential, ZeroGradClearsAllBlocks) {
  Sequential m = make_tiny_model();
  for (auto* p : m.params()) std::fill(p->grad.begin(), p->grad.end(), 1.0F);
  m.zero_grad();
  for (auto* p : m.params()) {
    for (float g : p->grad) EXPECT_FLOAT_EQ(g, 0.0F);
  }
}

TEST(Sequential, SaveLoadRoundTripStream) {
  Sequential a = make_tiny_model();
  Rng rng(42);
  a.init_weights(rng);

  std::stringstream buf;
  ASSERT_TRUE(a.save(buf));

  Sequential b = make_tiny_model();
  ASSERT_TRUE(b.load(buf));
  const auto pa = a.params();
  const auto pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_EQ(pa[i]->value, pb[i]->value);
}

TEST(Sequential, LoadRejectsMismatchedArchitecture) {
  Sequential a = make_tiny_model();
  Rng rng(42);
  a.init_weights(rng);
  std::stringstream buf;
  ASSERT_TRUE(a.save(buf));

  Sequential different;
  different.emplace<Dense>(4, 2);
  EXPECT_FALSE(different.load(buf));
}

TEST(Sequential, LoadRejectsGarbage) {
  std::stringstream buf("not a model file at all");
  Sequential m = make_tiny_model();
  EXPECT_FALSE(m.load(buf));
}

TEST(Sequential, SaveLoadRoundTripFile) {
  Sequential a = make_tiny_model();
  Rng rng(7);
  a.init_weights(rng);
  const std::string path = ::testing::TempDir() + "/dl2f_model_test.bin";
  ASSERT_TRUE(a.save_file(path));
  Sequential b = make_tiny_model();
  ASSERT_TRUE(b.load_file(path));
  EXPECT_EQ(a.params()[0]->value, b.params()[0]->value);
  std::remove(path.c_str());
}

TEST(Sequential, LoadFileMissingReturnsFalse) {
  Sequential m = make_tiny_model();
  EXPECT_FALSE(m.load_file("/nonexistent/path/model.bin"));
}

TEST(Sequential, LearnsSimplePatternDiscrimination) {
  // Classify whether the bright pixel is in the top or bottom half:
  // a sanity check that forward+backward+Adam actually learn.
  Sequential m = make_tiny_model();
  Rng rng(11);
  m.init_weights(rng);
  Adam opt(m.params(), 0.01F);

  const auto make_sample = [&](bool top) {
    Tensor3 t(1, 4, 4);
    const std::int32_t h = top ? rng.uniform_int(0, 1) : rng.uniform_int(2, 3);
    t.at(0, static_cast<std::int32_t>(h), static_cast<std::int32_t>(rng.uniform_int(0, 3))) =
        1.0F;
    return t;
  };

  for (int step = 0; step < 400; ++step) {
    const bool top = rng.bernoulli(0.5);
    Tensor3 target(1, 1, 1);
    target.data()[0] = top ? 1.0F : 0.0F;
    const auto out = m.forward(make_sample(top));
    Tensor3 grad(1, 1, 1);
    (void)bce_loss_into(out.data().data(), target.data().data(), out.size(), 1.0F,
                        grad.data().data());
    m.backward(grad);
    if (step % 4 == 3) opt.step();
  }

  int correct = 0;
  constexpr int kEval = 100;
  for (int i = 0; i < kEval; ++i) {
    const bool top = i % 2 == 0;
    const auto out = m.forward(make_sample(top));
    correct += ((out.data()[0] > 0.5F) == top) ? 1 : 0;
  }
  EXPECT_GE(correct, 90);
}

}  // namespace
}  // namespace dl2f::nn
