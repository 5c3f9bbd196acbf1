// Engine/session split: batched scoring must be bitwise-identical to
// one-window-per-call scoring (and to the per-sample reference forward
// pass), and one
// immutable PipelineEngine must be safely shareable across concurrent
// sessions with deterministic results.
#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <thread>

#include "core/evaluation.hpp"
#include "monitor/dataset.hpp"

namespace dl2f {
namespace {

constexpr std::int32_t kMeshSide = 8;

/// Random but deterministic feature frames; VCO in [0,1), BOC integer-ish
/// counts — the value ranges the samplers produce.
monitor::FrameSample synthetic_window(const monitor::FrameGeometry& geom, Rng& rng,
                                      bool under_attack) {
  monitor::FrameSample s;
  s.under_attack = under_attack;
  for (Direction d : kMeshDirections) {
    Frame vco = geom.make_frame();
    Frame boc = geom.make_frame();
    for (float& v : vco.data()) v = static_cast<float>(rng.uniform());
    for (float& v : boc.data()) v = static_cast<float>(rng.uniform_int(0, 400));
    monitor::frame_of(s.vco, d) = std::move(vco);
    monitor::frame_of(s.boc, d) = std::move(boc);
    monitor::frame_of(s.port_truth, d) = geom.make_frame();
  }
  return s;
}

std::vector<monitor::FrameSample> synthetic_windows(std::size_t count, std::uint64_t seed) {
  const monitor::FrameGeometry geom(MeshShape::square(kMeshSide));
  Rng rng(seed);
  std::vector<monitor::FrameSample> windows;
  windows.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    windows.push_back(synthetic_window(geom, rng, i % 2 == 0));
  }
  return windows;
}

/// Deterministically initialized (untrained) engine; parity does not care
/// about model quality, only that both paths see identical weights.
core::PipelineEngine deterministic_engine() {
  core::PipelineEngine engine(core::Dl2FenceConfig::paper_default(MeshShape::square(kMeshSide)));
  Rng det_rng(7), loc_rng(8);
  engine.mutable_detector().model().init_weights(det_rng);
  engine.mutable_localizer().model().init_weights(loc_rng);
  return engine;
}

void expect_bitwise_equal(const core::RoundResult& a, const core::RoundResult& b,
                          std::size_t index) {
  EXPECT_EQ(a.detected, b.detected) << "window " << index;
  EXPECT_EQ(std::memcmp(&a.probability, &b.probability, sizeof(float)), 0)
      << "window " << index << ": " << a.probability << " vs " << b.probability;
  EXPECT_EQ(a.victims, b.victims) << "window " << index;
  EXPECT_EQ(a.tlm.attackers, b.tlm.attackers) << "window " << index;
  EXPECT_EQ(a.tlm.target_victims, b.tlm.target_victims) << "window " << index;
  EXPECT_EQ(a.fusion.victims, b.fusion.victims) << "window " << index;
  EXPECT_EQ(a.fusion.mff, b.fusion.mff) << "window " << index;
}

TEST(PipelineEngine, ProcessBatchBitwiseIdenticalToProcess) {
  const core::PipelineEngine engine = deterministic_engine();
  const auto windows = synthetic_windows(21, 0x1234);  // odd count: exercises chunk tails

  core::PipelineSession session(engine, /*max_batch=*/8);
  const auto batched = session.process_batch({windows.data(), windows.size()});
  ASSERT_EQ(batched.size(), windows.size());

  core::PipelineSession per_window(engine, /*max_batch=*/1);
  std::size_t detected = 0;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const core::RoundResult single = per_window.process(windows[i]);
    expect_bitwise_equal(batched[i], single, i);
    detected += batched[i].detected ? 1 : 0;
  }
  // The synthetic set must exercise both branches for the parity claim to
  // mean anything.
  EXPECT_GT(detected, 0U);
  EXPECT_LT(detected, windows.size());
}

TEST(PipelineEngine, InferencePathMatchesReferenceForwardBitwise) {
  // The const batched path reproduces the per-sample reference
  // Sequential::forward exactly.
  core::PipelineEngine engine = deterministic_engine();
  const auto windows = synthetic_windows(9, 0x777);

  core::PipelineSession session(engine);
  const auto probs = session.detect_batch({windows.data(), windows.size()});
  core::DoSDetector& detector = engine.mutable_detector();
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const float training = detector.model().forward(detector.preprocess(windows[i])).data()[0];
    EXPECT_EQ(std::memcmp(&training, &probs[i], sizeof(float)), 0)
        << "window " << i << ": " << training << " vs " << probs[i];
  }
}

TEST(PipelineEngine, LocalizeBatchMatchesLocalize) {
  const core::PipelineEngine engine = deterministic_engine();
  const auto windows = synthetic_windows(6, 0xabcd);

  core::PipelineSession session(engine);
  const auto batched = session.localize_batch({windows.data(), windows.size()});
  core::PipelineSession per_window(engine, /*max_batch=*/1);
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const core::RoundResult single = per_window.localize(windows[i]);
    expect_bitwise_equal(batched[i], single, i);
  }
}

TEST(PipelineEngine, OneEngineSharedByFourConcurrentSessionsIsDeterministic) {
  const core::PipelineEngine engine = deterministic_engine();
  const auto windows = synthetic_windows(24, 0xbeef);
  const monitor::WindowBatch batch{windows.data(), windows.size()};

  core::PipelineSession reference_session(engine);
  const auto reference = reference_session.process_batch(batch);

  constexpr int kThreads = 4;
  std::vector<std::vector<core::RoundResult>> results(kThreads);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      core::PipelineSession session(engine);  // per-thread scratch
      results[static_cast<std::size_t>(t)] = session.process_batch(batch);
    });
  }
  for (auto& t : pool) t.join();

  for (int t = 0; t < kThreads; ++t) {
    const auto& r = results[static_cast<std::size_t>(t)];
    ASSERT_EQ(r.size(), reference.size()) << "thread " << t;
    for (std::size_t i = 0; i < r.size(); ++i) expect_bitwise_equal(r[i], reference[i], i);
  }
}

TEST(PipelineEngine, BatchLargerThanSessionCapacityIsChunked) {
  const core::PipelineEngine engine = deterministic_engine();
  const auto windows = synthetic_windows(5, 0x5150);

  // A batch larger than the session capacity is scored in max_batch-sized
  // chunks (2+2+1 here) and must stay identical to the per-window path.
  core::PipelineSession tiny(engine, /*max_batch=*/2);
  const auto batched = tiny.process_batch({windows.data(), windows.size()});
  core::PipelineSession per_window(engine, /*max_batch=*/1);
  for (std::size_t i = 0; i < windows.size(); ++i) {
    expect_bitwise_equal(batched[i], per_window.process(windows[i]), i);
  }
}

TEST(PipelineEngine, ScoreBenchmarkMatchesPerWindowRounds) {
  const core::PipelineEngine engine = deterministic_engine();

  monitor::Dataset test;
  test.mesh = MeshShape::square(kMeshSide);
  test.samples = synthetic_windows(16, 0xfeed);
  for (auto& s : test.samples) {
    if (s.under_attack) s.victim_truth = {1, 2, 3};
  }

  // The per-window reference: detection verdicts from process(), and
  // detector-independent localization of every attack window.
  core::PipelineSession per_window(engine, /*max_batch=*/1);
  ConfusionMatrix detection;
  core::LocalizationScore localization;
  for (const auto& s : test.samples) {
    detection.add(per_window.process(s).detected, s.under_attack);
    if (s.under_attack) localization.add(per_window.localize(s).victims, s.victim_truth);
  }
  const core::Metrics4 per_window_detection = core::detection_metrics(detection);
  const core::Metrics4 per_window_localization = localization.metrics();

  const auto batched = core::score_benchmark(engine, "synthetic", test);
  EXPECT_EQ(batched.detection.accuracy, per_window_detection.accuracy);
  EXPECT_EQ(batched.detection.f1, per_window_detection.f1);
  EXPECT_EQ(batched.localization.accuracy, per_window_localization.accuracy);
  EXPECT_EQ(batched.localization.f1, per_window_localization.f1);
}

TEST(PipelineEngine, SnapshotMakeEngineRejectsMismatchedBlobs) {
  const core::Dl2FenceConfig cfg =
      core::Dl2FenceConfig::paper_default(MeshShape::square(kMeshSide));
  std::istringstream det("garbage"), loc("garbage");
  EXPECT_THROW(core::PipelineEngine(cfg, det, loc), std::runtime_error);
}

}  // namespace
}  // namespace dl2f
