// Temporal detection head: batched-vs-reference bitwise parity, training
// determinism across worker-thread counts, the colluding-source suspect
// heuristic, and snapshot/campaign integration of the sequence head.
#include "temporal/adversarial.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "nn/inference.hpp"
#include "runtime/campaign.hpp"
#include "temporal/features.hpp"

namespace dl2f::temporal {
namespace {

constexpr std::int32_t kMeshSide = 8;

TemporalDetectorConfig small_config() {
  TemporalDetectorConfig cfg;
  cfg.mesh = MeshShape::square(kMeshSide);
  cfg.sequence_length = 4;
  return cfg;
}

SequenceDatasetConfig small_dataset_config() {
  SequenceDatasetConfig cfg;
  cfg.mesh = MeshShape::square(kMeshSide);
  cfg.sequence_length = 4;
  cfg.windows_per_run = 6;
  cfg.runs_per_cell = 1;
  cfg.params.mesh = cfg.mesh;
  cfg.params.attack_start = 1000;
  return cfg;
}

std::vector<monitor::Benchmark> one_workload() {
  return {monitor::Benchmark{traffic::SyntheticPattern::UniformRandom}};
}

std::string weights_of(const TemporalDetector& detector) {
  std::ostringstream os;
  detector.model().save(os);
  return os.str();
}

TEST(TemporalDataset, GridIsLabeledAndMitigationTailIsBenign) {
  const SequenceDatasetConfig cfg = small_dataset_config();
  const SequenceDataset data = generate_sequence_dataset(cfg, {"static", "pulse"}, one_workload());

  // One sequence per simulated window, both classes populated.
  ASSERT_EQ(data.samples.size(), 2U * 6U);
  EXPECT_GT(data.attack_count(), 0U);
  EXPECT_GT(data.benign_count(), 0U);
  for (const auto& s : data.samples) {
    EXPECT_EQ(s.windows.size(), 4U);
    EXPECT_EQ(s.workload, "Uniform Random");
  }

  // Window 0: benign prefix; final third (windows 4-5): attackers are
  // quarantined, so the label must flip back to benign even though the
  // sequence still carries attack windows in its history. (Run 0 is the
  // static family — continuously on, so mid-run windows are attack;
  // pulse's mid-run labels depend on its duty cycle, so only the prefix
  // and tail invariants are asserted for run 1.)
  EXPECT_FALSE(data.samples[0].under_attack);
  EXPECT_TRUE(data.samples[2].under_attack);
  for (const std::size_t base : {std::size_t{0}, std::size_t{6}}) {
    EXPECT_FALSE(data.samples[base + 4].under_attack);
    EXPECT_FALSE(data.samples[base + 5].under_attack);
  }

  // With the tail disabled the same windows stay under attack.
  SequenceDatasetConfig no_tail = cfg;
  no_tail.mitigation_tail = false;
  const SequenceDataset hot = generate_sequence_dataset(no_tail, {"static"}, one_workload());
  EXPECT_TRUE(hot.samples[4].under_attack);
  EXPECT_TRUE(hot.samples[5].under_attack);
}

TEST(TemporalDataset, GenerationIsDeterministic) {
  const SequenceDatasetConfig cfg = small_dataset_config();
  const SequenceDataset a = generate_sequence_dataset(cfg, {"pulse"}, one_workload());
  const SequenceDataset b = generate_sequence_dataset(cfg, {"pulse"}, one_workload());
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].under_attack, b.samples[i].under_attack);
    for (std::size_t w = 0; w < a.samples[i].windows.size(); ++w) {
      EXPECT_EQ(a.samples[i].windows[w].vco, b.samples[i].windows[w].vco);
      EXPECT_EQ(a.samples[i].windows[w].ni_load, b.samples[i].windows[w].ni_load);
    }
  }
}

TEST(TemporalDataset, RejectsUnknownFamilies) {
  EXPECT_THROW(
      (void)generate_sequence_dataset(small_dataset_config(), {"no-such-family"}, one_workload()),
      std::invalid_argument);
}

TEST(TemporalDetectorModel, BatchedInferenceBitwiseMatchesReferenceForward) {
  TemporalDetector detector(small_config());
  Rng rng(11);
  detector.model().init_weights(rng);

  const SequenceDataset data =
      generate_sequence_dataset(small_dataset_config(), {"static"}, one_workload());
  ASSERT_GE(data.samples.size(), 3U);

  nn::InferenceContext ctx;
  ctx.bind(detector.model(), detector.input_shape(), 3);
  nn::Tensor4& in = ctx.input(3);
  for (std::int32_t slot = 0; slot < 3; ++slot) {
    const auto view = data.samples[static_cast<std::size_t>(slot)].view();
    detector.preprocess_into({view.data(), view.size()}, in, slot);
  }
  const nn::Tensor4& out = detector.model().infer_batch(ctx);

  for (std::int32_t slot = 0; slot < 3; ++slot) {
    const auto view = data.samples[static_cast<std::size_t>(slot)].view();
    // Bitwise equality, not near-equality: batched and reference paths
    // must run the identical accumulation order.
    const monitor::SequenceView seq{view.data(), view.size()};
    EXPECT_EQ(out.sample(slot)[0], detector.model().forward(detector.preprocess(seq)).data()[0]);
  }
}

TEST(TemporalTraining, WeightsAreByteIdenticalAcrossThreadCounts) {
  const SequenceDataset data =
      generate_sequence_dataset(small_dataset_config(), {"static", "pulse"}, one_workload());

  TemporalTrainConfig train;
  train.epochs = 2;
  train.seed = 99;

  std::string blobs[3];
  const std::int32_t threads[3] = {1, 2, 4};
  for (std::size_t i = 0; i < 3; ++i) {
    TemporalDetector detector(small_config());
    train.threads = threads[i];
    const TemporalTrainReport report = train_temporal_detector(detector, data, train);
    EXPECT_EQ(report.epochs_run, 2);
    blobs[i] = weights_of(detector);
  }
  EXPECT_FALSE(blobs[0].empty());
  EXPECT_EQ(blobs[0], blobs[1]);
  EXPECT_EQ(blobs[0], blobs[2]);
}

TEST(SourceSuspects, FlagsCollusionAndRespectsTheMinSourcesGate) {
  const MeshShape mesh = MeshShape::square(kMeshSide);
  const auto make_window = [&](const std::vector<NodeId>& hot) {
    monitor::FrameSample s;
    s.window_cycles = 1000;
    s.ni_load.assign(static_cast<std::size_t>(mesh.rows() * mesh.cols()), 50.0F);  // 0.05 f/c
    for (const NodeId n : hot) s.ni_load[static_cast<std::size_t>(n)] = 600.0F;  // 0.6
    return s;
  };
  const SuspectConfig cfg;

  // Three synchronized hot sources across the sequence -> all three named.
  const std::vector<NodeId> colluders = {5, 27, 44};
  std::vector<monitor::FrameSample> windows(3, make_window(colluders));
  std::vector<const monitor::FrameSample*> view;
  for (const auto& w : windows) view.push_back(&w);
  EXPECT_EQ(source_suspects({view.data(), view.size()}, mesh, cfg), colluders);

  // Two hot sources stay under min_sources: the assist must not fire
  // (that regime belongs to the segmentation localizer).
  std::vector<monitor::FrameSample> two(3, make_window({5, 27}));
  view.clear();
  for (const auto& w : two) view.push_back(&w);
  EXPECT_TRUE(source_suspects({view.data(), view.size()}, mesh, cfg).empty());

  // Uniform benign load -> no suspects at all.
  std::vector<monitor::FrameSample> benign(3, make_window({}));
  view.clear();
  for (const auto& w : benign) view.push_back(&w);
  EXPECT_TRUE(source_suspects({view.data(), view.size()}, mesh, cfg).empty());
}

/// Deterministically initialized (untrained) engine with a temporal head.
core::PipelineEngine temporal_engine() {
  core::Dl2FenceConfig cfg = core::Dl2FenceConfig::paper_default(MeshShape::square(kMeshSide));
  cfg.enable_temporal = true;
  core::PipelineEngine engine(cfg);
  Rng det_rng(7), loc_rng(8), tmp_rng(9);
  engine.mutable_detector().model().init_weights(det_rng);
  engine.mutable_localizer().model().init_weights(loc_rng);
  engine.mutable_temporal().model().init_weights(tmp_rng);
  return engine;
}

TEST(TemporalSnapshot, MakeEngineRestoresTemporalWeightsExactly) {
  const core::PipelineEngine engine = temporal_engine();
  ASSERT_TRUE(engine.has_temporal());
  const runtime::ModelSnapshot snap = runtime::ModelSnapshot::capture(engine);
  EXPECT_FALSE(snap.temporal_weights.empty());

  const core::PipelineEngine restored = snap.make_engine();
  ASSERT_TRUE(restored.has_temporal());
  EXPECT_EQ(weights_of(restored.temporal()), weights_of(engine.temporal()));
}

TEST(TemporalCampaign, ByteIdenticalAcrossWorkerThreadCountsWithSequenceHead) {
  const runtime::ModelSnapshot snap = runtime::ModelSnapshot::capture(temporal_engine());

  runtime::CampaignConfig cfg;
  cfg.families = {"static", "colluding"};
  cfg.seeds = {1, 2};
  cfg.windows = 5;
  cfg.params.mesh = MeshShape::square(kMeshSide);
  cfg.params.attack_start = 1000;
  cfg.defense.window_cycles = 500;

  cfg.threads = 1;
  const std::string one = runtime::run_campaign(cfg, snap).serialize();
  cfg.threads = 2;
  const std::string two = runtime::run_campaign(cfg, snap).serialize();
  cfg.threads = 4;
  const std::string four = runtime::run_campaign(cfg, snap).serialize();

  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
}

}  // namespace
}  // namespace dl2f::temporal
