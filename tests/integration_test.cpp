// End-to-end integration: simulate -> sample -> train -> detect ->
// localize, asserting the qualitative claims of the paper hold on a
// scaled-down 8x8 configuration.
#include <gtest/gtest.h>

#include <sstream>

#include "core/evaluation.hpp"
#include "core/pipeline.hpp"
#include "monitor/dataset.hpp"

namespace dl2f {
namespace {

class EndToEnd : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const MeshShape mesh = MeshShape::square(8);
    monitor::DatasetConfig cfg;
    cfg.mesh = mesh;
    cfg.scenarios_per_benchmark = 16;
    cfg.benign_samples_per_run = 3;
    cfg.attack_samples_per_run = 3;
    const std::vector<monitor::Benchmark> benchmarks{
        monitor::Benchmark{traffic::SyntheticPattern::UniformRandom}};
    data_ = new monitor::Dataset(generate_dataset(cfg, benchmarks));
    split_ = new monitor::DatasetSplit(split_dataset(*data_, 0.3, 77));

    engine_ = new core::PipelineEngine(core::Dl2FenceConfig::paper_default(mesh));
    core::TrainConfig det_cfg;
    det_cfg.epochs = 80;
    core::train_detector(engine_->mutable_detector(), split_->train, det_cfg);
    core::LocalizerTrainConfig loc_cfg;
    loc_cfg.epochs = 40;
    core::train_localizer(engine_->mutable_localizer(), split_->train, loc_cfg);
  }

  static void TearDownTestSuite() {
    delete engine_;
    delete split_;
    delete data_;
    engine_ = nullptr;
    split_ = nullptr;
    data_ = nullptr;
  }

  static monitor::Dataset* data_;
  static monitor::DatasetSplit* split_;
  static core::PipelineEngine* engine_;
};

monitor::Dataset* EndToEnd::data_ = nullptr;
monitor::DatasetSplit* EndToEnd::split_ = nullptr;
core::PipelineEngine* EndToEnd::engine_ = nullptr;

TEST_F(EndToEnd, DetectionBeatsChanceByAWideMargin) {
  const auto cm = core::evaluate_detector(engine_->detector(), split_->test);
  EXPECT_GE(cm.accuracy(), 0.8) << cm;
}

TEST_F(EndToEnd, LocalizationRecoversMostOfTheRoute) {
  core::LocalizationScore score;
  core::PipelineSession session(*engine_);
  for (const auto& s : split_->test.samples) {
    if (!s.under_attack) continue;
    const auto r = session.localize(s);
    score.add(r.victims, s.victim_truth);
  }
  const auto m = score.metrics();
  EXPECT_GE(m.recall, 0.7);
  EXPECT_GE(m.precision, 0.7);
}

TEST_F(EndToEnd, PipelineGatesLocalizationOnDetection) {
  // Benign windows that the detector clears must produce empty results.
  core::PipelineSession session(*engine_);
  for (const auto& s : split_->test.samples) {
    const auto r = session.process(s);
    if (!r.detected) {
      EXPECT_TRUE(r.victims.empty());
      EXPECT_TRUE(r.tlm.attackers.empty());
    }
  }
}

TEST_F(EndToEnd, AttackerLocalizationFindsTrueAttackerInMostWindows) {
  int windows = 0, hit = 0;
  core::PipelineSession session(*engine_);
  for (const auto& s : split_->test.samples) {
    if (!s.under_attack) continue;
    ++windows;
    const auto r = session.localize(s);
    for (NodeId a : r.tlm.attackers) {
      if (std::find(s.scenario.attackers.begin(), s.scenario.attackers.end(), a) !=
          s.scenario.attackers.end()) {
        ++hit;
        break;
      }
    }
  }
  ASSERT_GT(windows, 0);
  EXPECT_GE(static_cast<double>(hit) / windows, 0.5);
}

TEST_F(EndToEnd, VceImprovesOrMatchesRecall) {
  core::Dl2FenceConfig no_vce_cfg = engine_->config();
  no_vce_cfg.enable_vce = false;
  // Share trained weights by copying them over.
  std::stringstream det_buf, loc_buf;
  ASSERT_TRUE(engine_->detector().model().save(det_buf));
  ASSERT_TRUE(engine_->localizer().model().save(loc_buf));
  const core::PipelineEngine no_vce(no_vce_cfg, det_buf, loc_buf);

  core::LocalizationScore with, without;
  core::PipelineSession with_session(*engine_), without_session(no_vce);
  for (const auto& s : split_->test.samples) {
    if (!s.under_attack) continue;
    with.add(with_session.localize(s).victims, s.victim_truth);
    without.add(without_session.localize(s).victims, s.victim_truth);
  }
  EXPECT_GE(with.metrics().recall, without.metrics().recall);
}

}  // namespace
}  // namespace dl2f
