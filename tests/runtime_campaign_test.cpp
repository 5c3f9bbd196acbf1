// Campaign engine: grid order, model-snapshot round-trips, and the core
// contract that results are byte-identical for any worker-thread count.
#include "runtime/campaign.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

namespace dl2f::runtime {
namespace {

constexpr std::int32_t kMeshSide = 8;

/// Deterministically initialized (but untrained) pipeline: campaign
/// mechanics do not care about model quality, only about determinism.
ModelSnapshot deterministic_snapshot(bool temporal = false) {
  core::Dl2FenceConfig cfg = core::Dl2FenceConfig::paper_default(MeshShape::square(kMeshSide));
  cfg.enable_temporal = temporal;
  core::PipelineEngine engine(cfg);
  Rng det_rng(7), loc_rng(8), tmp_rng(9);
  engine.mutable_detector().model().init_weights(det_rng);
  engine.mutable_localizer().model().init_weights(loc_rng);
  if (temporal) engine.mutable_temporal().model().init_weights(tmp_rng);
  return ModelSnapshot::capture(engine);
}

CampaignConfig small_campaign() {
  CampaignConfig cfg;
  cfg.families = {"static", "multi-victim"};
  cfg.seeds = {1, 2, 3};
  cfg.windows = 4;
  cfg.params.mesh = MeshShape::square(kMeshSide);
  cfg.params.attack_start = 1000;
  cfg.defense.window_cycles = 500;
  return cfg;
}

TEST(ModelSnapshot, CaptureOfMakeEngineReproducesEveryBlob) {
  for (const bool temporal : {false, true}) {
    SCOPED_TRACE(temporal ? "with a temporal head" : "without a temporal head");
    const ModelSnapshot snap = deterministic_snapshot(temporal);
    EXPECT_FALSE(snap.detector_weights.empty());
    EXPECT_FALSE(snap.localizer_weights.empty());
    EXPECT_EQ(snap.temporal_weights.empty(), !temporal);

    const ModelSnapshot again = ModelSnapshot::capture(snap.make_engine());
    EXPECT_EQ(again.config.enable_temporal, temporal);
    EXPECT_EQ(again.detector_weights, snap.detector_weights);
    EXPECT_EQ(again.localizer_weights, snap.localizer_weights);
    EXPECT_EQ(again.temporal_weights, snap.temporal_weights);
  }
}

TEST(ModelSnapshot, MakeEngineRejectsATemporalFlagWithoutItsBlob) {
  // A temporal head without weights would score with all-zero weights.
  ModelSnapshot snap = deterministic_snapshot(/*temporal=*/true);
  snap.temporal_weights.clear();
  EXPECT_THROW((void)snap.make_engine(), std::runtime_error);

  // The converse mismatch: a temporal blob the config has no head for.
  ModelSnapshot stray = deterministic_snapshot(/*temporal=*/true);
  stray.config.enable_temporal = false;
  EXPECT_THROW((void)stray.make_engine(), std::runtime_error);
}

TEST(Campaign, JobsComeBackInGridOrder) {
  const ModelSnapshot snap = deterministic_snapshot();
  CampaignConfig cfg = small_campaign();
  const CampaignResult result = run_campaign(cfg, snap);

  ASSERT_EQ(result.jobs.size(), cfg.families.size() * cfg.seeds.size());
  std::size_t i = 0;
  for (const auto& family : cfg.families) {
    for (const std::uint64_t seed : cfg.seeds) {
      EXPECT_EQ(result.jobs[i].family, family);
      EXPECT_EQ(result.jobs[i].seed, seed);
      EXPECT_EQ(result.jobs[i].summary.windows, cfg.windows);
      ++i;
    }
  }
}

TEST(Campaign, ByteIdenticalAcrossWorkerThreadCounts) {
  const ModelSnapshot snap = deterministic_snapshot();
  CampaignConfig cfg = small_campaign();

  cfg.threads = 1;
  const std::string one = run_campaign(cfg, snap).serialize();
  cfg.threads = 3;
  const std::string three = run_campaign(cfg, snap).serialize();
  cfg.threads = 8;  // more workers than jobs
  const std::string eight = run_campaign(cfg, snap).serialize();

  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, three);
  EXPECT_EQ(one, eight);
}

CampaignConfig three_axis_campaign() {
  CampaignConfig cfg = small_campaign();
  cfg.families = {"static", "pulse", "colluding", "mimicry"};
  cfg.workloads = {monitor::Benchmark{traffic::SyntheticPattern::UniformRandom},
                   monitor::Benchmark{traffic::SyntheticPattern::BitComplement},
                   monitor::Benchmark{traffic::ParsecWorkload::X264}};
  cfg.seeds = {1, 2};
  cfg.windows = 3;
  return cfg;
}

TEST(Campaign, ThreeAxisGridComesBackFamilyWorkloadSeedOrdered) {
  const ModelSnapshot snap = deterministic_snapshot();
  const CampaignConfig cfg = three_axis_campaign();
  const CampaignResult result = run_campaign(cfg, snap);

  ASSERT_EQ(result.jobs.size(), cfg.families.size() * cfg.workloads.size() * cfg.seeds.size());
  std::size_t i = 0;
  for (const auto& family : cfg.families) {
    for (const auto& workload : cfg.workloads) {
      for (const std::uint64_t seed : cfg.seeds) {
        EXPECT_EQ(result.jobs[i].family, family);
        EXPECT_EQ(result.jobs[i].workload, workload.name());
        EXPECT_EQ(result.jobs[i].seed, seed);
        ++i;
      }
    }
  }
}

TEST(Campaign, ThreeAxisGridIsByteIdenticalAcrossWorkerThreadCounts) {
  const ModelSnapshot snap = deterministic_snapshot();
  CampaignConfig cfg = three_axis_campaign();

  cfg.threads = 1;
  const std::string one = run_campaign(cfg, snap).serialize();
  cfg.threads = 2;
  const std::string two = run_campaign(cfg, snap).serialize();
  cfg.threads = 4;
  const std::string four = run_campaign(cfg, snap).serialize();

  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
  // The dump names every workload, so equal strings really compare the
  // whole three-axis grid.
  EXPECT_NE(one.find("workload=Uniform Random"), std::string::npos);
  EXPECT_NE(one.find("workload=X264"), std::string::npos);
}

TEST(Campaign, TraceWorkloadFamiliesAreByteIdenticalAcrossThreadCounts) {
  // The request/reply workloads (src/workload/) carry much more internal
  // state than the synthetic generators — outstanding windows, reply
  // queues, delivery listeners — so they get their own worker-count
  // determinism check over the full new-family axis.
  const ModelSnapshot snap = deterministic_snapshot();
  CampaignConfig cfg = small_campaign();
  cfg.families = {"static", "pulse"};
  cfg.workloads = monitor::trace_benchmarks();
  cfg.seeds = {1, 2};
  cfg.windows = 3;

  cfg.threads = 1;
  const std::string one = run_campaign(cfg, snap).serialize();
  cfg.threads = 2;
  const std::string two = run_campaign(cfg, snap).serialize();
  cfg.threads = 4;
  const std::string four = run_campaign(cfg, snap).serialize();

  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
  EXPECT_NE(one.find("workload=trace-replay"), std::string::npos);
  EXPECT_NE(one.find("workload=openloop-burst"), std::string::npos);
  EXPECT_NE(one.find("workload=memhog"), std::string::npos);
}

TEST(Campaign, EmptyWorkloadAxisFallsBackToParamsBenign) {
  const ModelSnapshot snap = deterministic_snapshot();
  CampaignConfig cfg = small_campaign();  // cfg.workloads stays empty
  const CampaignResult result = run_campaign(cfg, snap);
  ASSERT_EQ(result.jobs.size(), cfg.families.size() * cfg.seeds.size());
  for (const auto& job : result.jobs) {
    EXPECT_EQ(job.workload, cfg.params.benign.name());
  }
}

TEST(Campaign, WorkloadAxisChangesTheTraffic) {
  // The same (family, seed) cell under two different workloads must not
  // produce identical summaries — the workload axis has to matter.
  const ModelSnapshot snap = deterministic_snapshot();
  CampaignConfig cfg = small_campaign();
  cfg.families = {"static"};
  cfg.seeds = {1};
  cfg.workloads = {monitor::Benchmark{traffic::SyntheticPattern::UniformRandom},
                   monitor::Benchmark{traffic::SyntheticPattern::Neighbor}};
  const CampaignResult result = run_campaign(cfg, snap);
  ASSERT_EQ(result.jobs.size(), 2U);
  EXPECT_NE(result.jobs[0].summary.baseline_latency, result.jobs[1].summary.baseline_latency);
}

TEST(Campaign, RejectsUnknownFamiliesAndMismatchedMeshUpfront) {
  const ModelSnapshot snap = deterministic_snapshot();

  CampaignConfig typo = small_campaign();
  typo.families = {"static", "victim_sweep"};  // underscore typo
  EXPECT_THROW((void)run_campaign(typo, snap), std::invalid_argument);

  CampaignConfig wrong_mesh = small_campaign();
  wrong_mesh.params.mesh = MeshShape::square(kMeshSide + 2);
  EXPECT_THROW((void)run_campaign(wrong_mesh, snap), std::invalid_argument);
}

TEST(Campaign, FamilyTableHasOneRowPerFamily) {
  const ModelSnapshot snap = deterministic_snapshot();
  CampaignConfig cfg = small_campaign();
  const CampaignResult result = run_campaign(cfg, snap);

  std::ostringstream os;
  os << result.family_table(cfg.families);
  const std::string table = os.str();
  EXPECT_NE(table.find("static"), std::string::npos);
  EXPECT_NE(table.find("multi-victim"), std::string::npos);
  EXPECT_NE(table.find("Attacker F1"), std::string::npos);
}

}  // namespace
}  // namespace dl2f::runtime
