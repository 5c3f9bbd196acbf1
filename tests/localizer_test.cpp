#include "core/localizer.hpp"

#include <gtest/gtest.h>

#include "monitor/dataset.hpp"
#include "nn/loss.hpp"
#include "traffic/fdos.hpp"

namespace dl2f::core {
namespace {

TEST(Localizer, ArchitecturePreservesFrameShape) {
  LocalizerConfig cfg;
  cfg.mesh = MeshShape::square(16);
  DoSLocalizer loc(cfg);
  const auto out = loc.model().output_shape(nn::Tensor3(1, 16, 15));
  EXPECT_EQ(out.channels(), 1);
  EXPECT_EQ(out.height(), 16);
  EXPECT_EQ(out.width(), 15);
  // Three conv layers: 80 + 584 + 73 learnable scalars.
  EXPECT_EQ(loc.model().param_count(), 737U);
}

TEST(Localizer, ConfigurableDepth) {
  LocalizerConfig cfg;
  cfg.mesh = MeshShape::square(8);
  cfg.conv_layers = 4;
  DoSLocalizer loc(cfg);
  const auto out = loc.model().output_shape(nn::Tensor3(1, 8, 7));
  EXPECT_EQ(out.height(), 8);
  EXPECT_GT(loc.model().param_count(), 737U);
}

TEST(Localizer, PreprocessNormalizesBocOnly) {
  LocalizerConfig cfg;
  cfg.mesh = MeshShape::square(8);
  cfg.feature = Feature::Boc;
  DoSLocalizer boc_loc(cfg);
  Frame f(8, 7);
  f.at(0, 0) = 4000.0F;
  f.at(1, 1) = 2000.0F;
  const auto t = boc_loc.preprocess(f);
  EXPECT_FLOAT_EQ(t.at(0, 0, 0), 1.0F);
  EXPECT_FLOAT_EQ(t.at(0, 1, 1), 0.5F);

  cfg.feature = Feature::Vco;
  DoSLocalizer vco_loc(cfg);
  Frame v(8, 7);
  v.at(0, 0) = 0.5F;
  EXPECT_FLOAT_EQ(vco_loc.preprocess(v).at(0, 0, 0), 0.5F);
}

TEST(Localizer, LearnsToSegmentSyntheticRoutes) {
  // Train on synthetic "hot route" frames: a high-count streak against a
  // noisy background; the model must learn to segment the streak.
  const auto mesh = MeshShape::square(8);
  const monitor::FrameGeometry geom(mesh);
  LocalizerConfig cfg;
  cfg.mesh = mesh;
  DoSLocalizer loc(cfg);

  monitor::Dataset data;
  data.mesh = mesh;
  Rng rng(17);
  for (int i = 0; i < 30; ++i) {
    monitor::FrameSample s;
    s.under_attack = true;
    const auto row = static_cast<std::int32_t>(rng.uniform_int(0, 7));
    for (Direction d : kMeshDirections) {
      monitor::frame_of(s.vco, d) = geom.make_frame();
      Frame boc = geom.make_frame();
      Frame mask = geom.make_frame();
      for (float& v : boc.data()) v = static_cast<float>(rng.uniform(0.0, 300.0));
      if (d == Direction::West) {
        for (std::int32_t c = 0; c < boc.cols(); ++c) {
          boc.at(row, c) = static_cast<float>(rng.uniform(3200.0, 4000.0));
          mask.at(row, c) = 1.0F;
        }
      }
      monitor::frame_of(s.boc, d) = std::move(boc);
      monitor::frame_of(s.port_truth, d) = std::move(mask);
    }
    data.samples.push_back(std::move(s));
  }

  LocalizerTrainConfig tc;
  tc.epochs = 30;
  const auto report = train_localizer(loc, data, tc);
  EXPECT_EQ(report.epochs_run, 30);
  EXPECT_GT(report.final_dice, 0.85);

  const double eval_dice = evaluate_localizer_dice(loc, data);
  EXPECT_GT(eval_dice, 0.85);
}

TEST(Localizer, EvaluateDiceMatchesThePerFrameReference) {
  // evaluate_localizer_dice scores in batched chunks; it must equal the
  // per-sample reference forward binarized by Frame::binarized, over more
  // frames than one chunk, at a non-default threshold, skipping benign
  // samples.
  const auto mesh = MeshShape::square(8);
  const monitor::FrameGeometry geom(mesh);
  LocalizerConfig cfg;
  cfg.mesh = mesh;
  cfg.threshold = 0.45F;
  DoSLocalizer loc(cfg);
  Rng rng(3);
  loc.model().init_weights(rng);

  monitor::Dataset data;
  data.mesh = mesh;
  for (int i = 0; i < 11; ++i) {  // 9 attack samples: 36 frames > one chunk
    monitor::FrameSample s;
    s.under_attack = i % 5 != 4;
    for (Direction d : kMeshDirections) {
      Frame boc = geom.make_frame();
      Frame mask = geom.make_frame();
      for (float& v : boc.data()) v = static_cast<float>(rng.uniform(0.0, 1000.0));
      for (float& v : mask.data()) v = rng.uniform() < 0.2 ? 1.0F : 0.0F;
      monitor::frame_of(s.vco, d) = geom.make_frame();
      monitor::frame_of(s.boc, d) = std::move(boc);
      monitor::frame_of(s.port_truth, d) = std::move(mask);
    }
    data.samples.push_back(std::move(s));
  }

  double total = 0.0;
  std::int64_t count = 0;
  for (const auto& s : data.samples) {
    if (!s.under_attack) continue;
    for (Direction d : kMeshDirections) {
      const Frame seg = loc.model()
                            .forward(loc.preprocess(monitor::frame_of(s.boc, d)))
                            .to_frame()
                            .binarized(cfg.threshold);
      const Frame& truth = monitor::frame_of(s.port_truth, d);
      total += nn::dice_score_raw(seg.data().data(), truth.data().data(), seg.size());
      ++count;
    }
  }
  ASSERT_EQ(count, 36);
  EXPECT_EQ(evaluate_localizer_dice(loc, data), total / static_cast<double>(count));
}

TEST(Localizer, EvaluateDiceOnEmptyDatasetIsOne) {
  LocalizerConfig cfg;
  cfg.mesh = MeshShape::square(8);
  DoSLocalizer loc(cfg);
  monitor::Dataset empty;
  EXPECT_DOUBLE_EQ(evaluate_localizer_dice(loc, empty), 1.0);
}


TEST(Localizer, MobileNetVariantShrinksInteriorLayers) {
  // §6 extension: depthwise-separable interior blocks for >32x32 NoCs.
  LocalizerConfig std_cfg;
  std_cfg.mesh = MeshShape::square(16);
  LocalizerConfig mobile_cfg = std_cfg;
  mobile_cfg.depthwise_separable = true;
  mobile_cfg.conv_layers = 4;  // one extra interior block, still smaller
  std_cfg.conv_layers = 4;

  DoSLocalizer standard(std_cfg);
  DoSLocalizer mobile(mobile_cfg);
  EXPECT_LT(mobile.model().param_count(), standard.model().param_count());
  // Shape contract unchanged.
  const auto out = mobile.model().output_shape(nn::Tensor3(1, 16, 15));
  EXPECT_EQ(out.channels(), 1);
  EXPECT_EQ(out.height(), 16);
  EXPECT_EQ(out.width(), 15);
}

TEST(Localizer, MobileNetVariantStillLearnsRoutes) {
  const auto mesh = MeshShape::square(8);
  const monitor::FrameGeometry geom(mesh);
  LocalizerConfig cfg;
  cfg.mesh = mesh;
  cfg.depthwise_separable = true;
  DoSLocalizer loc(cfg);

  monitor::Dataset data;
  data.mesh = mesh;
  Rng rng(23);
  for (int i = 0; i < 24; ++i) {
    monitor::FrameSample s;
    s.under_attack = true;
    const auto row = static_cast<std::int32_t>(rng.uniform_int(0, 7));
    for (Direction d : kMeshDirections) {
      monitor::frame_of(s.vco, d) = geom.make_frame();
      Frame boc = geom.make_frame();
      Frame mask = geom.make_frame();
      for (float& v : boc.data()) v = static_cast<float>(rng.uniform(0.0, 300.0));
      if (d == Direction::East) {
        for (std::int32_t c = 0; c < boc.cols(); ++c) {
          boc.at(row, c) = static_cast<float>(rng.uniform(3200.0, 4000.0));
          mask.at(row, c) = 1.0F;
        }
      }
      monitor::frame_of(s.boc, d) = std::move(boc);
      monitor::frame_of(s.port_truth, d) = std::move(mask);
    }
    data.samples.push_back(std::move(s));
  }

  LocalizerTrainConfig tc;
  tc.epochs = 30;
  const auto report = train_localizer(loc, data, tc);
  EXPECT_GT(report.final_dice, 0.8);
}

}  // namespace
}  // namespace dl2f::core
