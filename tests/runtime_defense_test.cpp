// Closed-loop defense: a trained pipeline watching a live simulation must
// fence the true attackers and bring benign mean and tail (p50/p99)
// latency back to the pre-attack baseline.
#include "runtime/defense.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "runtime/campaign.hpp"
#include "runtime/scenario.hpp"

namespace dl2f::runtime {
namespace {

constexpr std::int32_t kMeshSide = 8;

class DefenseLoop : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TrainPreset preset;
    preset.scenarios = 8;
    preset.detector_epochs = 50;
    preset.localizer_epochs = 25;
    model_ = new ModelSnapshot(train_model_snapshot(
        MeshShape::square(kMeshSide), monitor::Benchmark{traffic::SyntheticPattern::UniformRandom},
        preset));
  }
  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
  }

  static ScenarioParams static_attack_params() {
    ScenarioParams p;
    p.mesh = MeshShape::square(kMeshSide);
    p.num_attackers = 2;
    p.fir = 0.8;
    p.attack_start = 3000;
    return p;
  }

  static ModelSnapshot* model_;
};

ModelSnapshot* DefenseLoop::model_ = nullptr;

TEST_F(DefenseLoop, MitigationFencesAttackersAndRestoresLatency) {
  const core::PipelineEngine engine = model_->make_engine();
  const ScenarioParams params = static_attack_params();
  const auto scenario = ScenarioRegistry::instance().make("static", params, 2024);

  noc::MeshConfig mesh_cfg;
  mesh_cfg.shape = params.mesh;
  traffic::Simulation sim(mesh_cfg);
  scenario->install(sim, 7);

  DefenseConfig cfg;  // 1000-cycle windows, probation 3
  DefenseRuntime runtime(sim, engine, cfg);
  runtime.attach_scenario(scenario.get());
  runtime.run_windows(10);

  const DefenseSummary s = runtime.summarize(2.0);
  ASSERT_GE(s.first_attack_cycle, 0);
  EXPECT_GE(s.detect_cycle, 0) << "attack never detected";
  ASSERT_TRUE(s.mitigated()) << "attackers never fenced";
  ASSERT_TRUE(s.recovered()) << "benign latency never recovered";

  // Every true attacker ended up quarantined in the mitigation window.
  const auto truth = scenario->all_attackers();
  const auto& windows = runtime.history();
  const auto mit = std::find_if(windows.begin(), windows.end(),
                                [&](const auto& w) { return w.end == s.mitigate_cycle; });
  ASSERT_NE(mit, windows.end());
  for (const NodeId a : truth) {
    EXPECT_NE(std::find(mit->quarantined.begin(), mit->quarantined.end(), a),
              mit->quarantined.end())
        << "attacker " << a << " not fenced";
  }

  // Recovery inside the probation window, mean and tails restored.
  EXPECT_LE(s.recover_cycle - s.mitigate_cycle,
            static_cast<noc::Cycle>(cfg.probation_windows) * cfg.window_cycles);
  EXPECT_LE(s.recovered_latency, 2.0 * s.baseline_latency);
  const auto rec = std::find_if(windows.begin(), windows.end(),
                                [&](const auto& w) { return w.end == s.recover_cycle; });
  ASSERT_NE(rec, windows.end());
  EXPECT_LE(rec->benign_p50, 2.0 * s.baseline_p50 + 2.0);
  EXPECT_LE(rec->benign_p99, 2.0 * s.baseline_p99 + 4.0);

  // The attack degraded the network in the first place (the recovery is
  // meaningful): peak windowed latency clearly above baseline.
  EXPECT_GT(s.peak_latency, 1.5 * s.baseline_latency);
}

TEST_F(DefenseLoop, MonitorOnlyModeObservesButNeverFences) {
  const core::PipelineEngine engine = model_->make_engine();
  const ScenarioParams params = static_attack_params();
  const auto scenario = ScenarioRegistry::instance().make("static", params, 2024);

  noc::MeshConfig mesh_cfg;
  mesh_cfg.shape = params.mesh;
  traffic::Simulation sim(mesh_cfg);
  scenario->install(sim, 7);

  DefenseConfig cfg;
  cfg.mitigation_enabled = false;
  DefenseRuntime runtime(sim, engine, cfg);
  runtime.attach_scenario(scenario.get());
  runtime.run_windows(8);

  for (const auto& w : runtime.history()) {
    EXPECT_TRUE(w.quarantined.empty());
    EXPECT_TRUE(w.newly_quarantined.empty());
  }
  const DefenseSummary s = runtime.summarize();
  EXPECT_GE(s.detect_cycle, 0);       // still sees the attack...
  EXPECT_FALSE(s.mitigated());        // ...but never acts
  EXPECT_EQ(sim.mesh().packets_dropped(), 0);
}

TEST_F(DefenseLoop, ProbationReleasesAFalselyFencedNodeEvenInMonitorOnlyMode) {
  const core::PipelineEngine engine = model_->make_engine();
  ScenarioParams params = static_attack_params();
  params.attack_start = 1'000'000;  // benign for the whole test
  const auto scenario = ScenarioRegistry::instance().make("static", params, 2024);

  noc::MeshConfig mesh_cfg;
  mesh_cfg.shape = params.mesh;
  traffic::Simulation sim(mesh_cfg);
  scenario->install(sim, 7);

  DefenseConfig cfg;
  cfg.probation_windows = 2;
  cfg.mitigation_enabled = false;  // probation must run regardless
  DefenseRuntime runtime(sim, engine, cfg);
  runtime.attach_scenario(scenario.get());

  const NodeId innocent = 27;
  runtime.quarantine_now(innocent);
  EXPECT_TRUE(sim.mesh().quarantined(innocent));

  runtime.run_windows(8);
  EXPECT_FALSE(sim.mesh().quarantined(innocent))
      << "clean probation windows must release the node";
  bool released = false;
  for (const auto& w : runtime.history()) {
    released = released || std::find(w.released.begin(), w.released.end(), innocent) !=
                               w.released.end();
  }
  EXPECT_TRUE(released);
}

TEST_F(DefenseLoop, OngoingAttackDoesNotBlockAnUnimplicatedNodesRelease) {
  // Probation is per-node evidence: while a real flood keeps the detector
  // dirty, a fenced node the TLM never names must still be released.
  const core::PipelineEngine engine = model_->make_engine();
  ScenarioParams params = static_attack_params();
  params.attack_start = 0;  // attack from the first cycle, never mitigated
  const auto scenario = ScenarioRegistry::instance().make("static", params, 2024);

  noc::MeshConfig mesh_cfg;
  mesh_cfg.shape = params.mesh;
  traffic::Simulation sim(mesh_cfg);
  scenario->install(sim, 7);

  DefenseConfig cfg;
  cfg.mitigation_enabled = false;  // flood stays live -> windows stay dirty
  cfg.probation_windows = 2;
  DefenseRuntime runtime(sim, engine, cfg);
  runtime.attach_scenario(scenario.get());

  const NodeId innocent = 63;  // mesh corner, never on the flooding route
  runtime.quarantine_now(innocent);
  runtime.run_windows(10);

  // The attack was indeed seen (dirty windows happened)...
  std::int32_t dirty = 0;
  for (const auto& w : runtime.history()) dirty += w.detected ? 1 : 0;
  EXPECT_GT(dirty, 0);
  // ...and the unimplicated node was still released.
  EXPECT_FALSE(sim.mesh().quarantined(innocent));
}

TEST(DefenseGroundTruth, MitigationInADormantWindowStillCountsAsMitigated) {
  // Fencing often lands in a window where a periodic attack is between
  // bursts (truth_attack false); the summary must still certify
  // mitigation once every attacker that has flooded is fenced.
  const MeshShape mesh = MeshShape::square(kMeshSide);
  core::PipelineEngine engine(core::Dl2FenceConfig::paper_default(mesh));
  Rng det_rng(7), loc_rng(8);
  engine.mutable_detector().model().init_weights(det_rng);
  engine.mutable_localizer().model().init_weights(loc_rng);

  ScenarioParams params;
  params.mesh = mesh;
  params.attack_start = 1000;
  params.burst_period = 2000;  // on [1000,2000), off [2000,3000), ...
  params.burst_duty = 0.5;
  const auto scenario = ScenarioRegistry::instance().make("transient", params, 5);

  noc::MeshConfig mesh_cfg;
  mesh_cfg.shape = mesh;
  traffic::Simulation sim(mesh_cfg);
  scenario->install(sim, 9);

  DefenseConfig cfg;
  cfg.mitigation_enabled = false;  // fence manually, in a dormant window
  DefenseRuntime runtime(sim, engine, cfg);
  runtime.attach_scenario(scenario.get());
  runtime.run_windows(3);  // benign, burst, off-phase
  for (const NodeId a : scenario->all_attackers()) runtime.quarantine_now(a);
  runtime.run_windows(2);  // fenced throughout -> truth_attack false here

  const DefenseSummary s = runtime.summarize();
  ASSERT_GE(s.first_attack_cycle, 0);
  EXPECT_TRUE(s.mitigated());
  EXPECT_EQ(s.mitigate_cycle, 4000);  // end of the first post-fence window
}

TEST(DefenseGroundTruth, WindowTruthIntegratesBurstsThatDodgeTheMidpoint) {
  // A transient attack whose burst occupies only the first 30% of every
  // 1000-cycle window is invisible to a midpoint (or boundary) sample;
  // the window truth must still mark these windows as attacked.
  const MeshShape mesh = MeshShape::square(kMeshSide);
  core::PipelineEngine engine(core::Dl2FenceConfig::paper_default(mesh));
  Rng det_rng(7), loc_rng(8);
  engine.mutable_detector().model().init_weights(det_rng);
  engine.mutable_localizer().model().init_weights(loc_rng);

  ScenarioParams params;
  params.mesh = mesh;
  params.attack_start = 1000;
  params.burst_period = 1000;  // aligned with the monitoring window
  params.burst_duty = 0.3;
  const auto scenario = ScenarioRegistry::instance().make("transient", params, 5);

  noc::MeshConfig mesh_cfg;
  mesh_cfg.shape = mesh;
  traffic::Simulation sim(mesh_cfg);
  scenario->install(sim, 9);

  DefenseConfig cfg;
  cfg.mitigation_enabled = false;  // untrained model: keep the fence out of the truth
  DefenseRuntime runtime(sim, engine, cfg);
  runtime.attach_scenario(scenario.get());
  runtime.run_windows(4);

  const auto& windows = runtime.history();
  EXPECT_FALSE(windows[0].truth_attack);  // pre-attack window
  for (std::size_t w = 1; w < windows.size(); ++w) {
    EXPECT_TRUE(windows[w].truth_attack) << "window " << w;
    EXPECT_EQ(windows[w].truth_attackers, scenario->all_attackers()) << "window " << w;
  }
}

}  // namespace
}  // namespace dl2f::runtime
