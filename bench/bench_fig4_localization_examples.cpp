// Figure 4: localization examples on the paper's two showcase scenarios
// (attacker 104 -> victim 0, and attackers 192 & 15 -> victim 85) on a
// 16x16 mesh under synthetic-traffic-pattern background load.
//
// Two localizers are trained — one on VCO frames, one on normalized BOC
// frames — and both are run on the same attack windows. Expected shape
// (paper): BOC reconstructs the full attacking route (acc/prec/recall ~1),
// VCO leaves holes in traffic-intensive conditions (lower recall).
#include <algorithm>
#include <iostream>

#include "bench/harness.hpp"
#include "common/table.hpp"
#include "core/pipeline.hpp"
#include "traffic/simulation.hpp"

namespace {

using namespace dl2f;

/// Render the fused victim estimate as a 16x16 character map.
void print_node_map(const MeshShape& mesh, const std::vector<NodeId>& victims,
                    const std::vector<NodeId>& truth,
                    const traffic::AttackScenario& scenario) {
  const auto contains = [](const std::vector<NodeId>& v, NodeId n) {
    return std::find(v.begin(), v.end(), n) != v.end();
  };
  for (std::int32_t y = mesh.rows() - 1; y >= 0; --y) {  // print north row first
    std::cout << "  ";
    for (std::int32_t x = 0; x < mesh.cols(); ++x) {
      const NodeId n = mesh.id_of(Coord{x, y});
      char c = '.';
      const bool predicted = contains(victims, n);
      const bool actual = contains(truth, n);
      if (contains(scenario.attackers, n)) c = 'A';
      else if (predicted && actual) c = '#';   // correctly localized victim
      else if (predicted) c = '?';             // false positive
      else if (actual) c = 'o';                // missed victim
      std::cout << c << ' ';
    }
    std::cout << '\n';
  }
  std::cout << "  (A attacker, # hit, o miss, ? spurious)\n";
}

monitor::FrameSample capture_window(const MeshShape& mesh,
                                    const traffic::AttackScenario& scenario,
                                    std::uint64_t seed) {
  noc::MeshConfig cfg;
  cfg.shape = mesh;
  traffic::Simulation sim(cfg);
  sim.add_generator(std::make_unique<traffic::SyntheticTraffic>(
      traffic::SyntheticPattern::UniformRandom, 0.02, seed));
  sim.add_generator(std::make_unique<traffic::FloodingAttack>(scenario, seed + 1));
  sim.run(1500);
  sim.mesh().reset_telemetry();
  sim.run(1000);

  const monitor::FeatureSampler sampler(mesh);
  monitor::FrameSample s;
  s.under_attack = true;
  s.scenario = scenario;
  s.vco = sampler.sample_vco(sim.mesh());
  s.boc = sampler.sample_boc(sim.mesh());
  s.victim_truth = scenario.ground_truth_victims(mesh);
  s.port_truth = monitor::ground_truth_masks(sampler.geometry(), scenario);
  return s;
}

void report(const char* label, const core::PipelineEngine& engine,
            const monitor::FrameSample& s) {
  const auto r = core::PipelineSession(engine).localize(s);
  core::LocalizationScore score;
  score.add(r.victims, s.victim_truth);
  const auto m = score.metrics();
  std::cout << "  [" << label << "] accuracy " << TextTable::cell(m.accuracy, 2)
            << "  precision " << TextTable::cell(m.precision, 2) << "  recall "
            << TextTable::cell(m.recall, 2) << "  | TLM attackers:";
  for (NodeId a : r.tlm.attackers) std::cout << ' ' << a;
  std::cout << '\n';
  if (std::string_view(label) == "BOC") {
    print_node_map(engine.geometry().mesh(), r.victims, s.victim_truth, s.scenario);
  }
}

}  // namespace

int main() {
  using namespace dl2f;
  const MeshShape mesh = MeshShape::square(16);
  auto preset = bench::scale_preset();

  std::cout << "Figure 4: localization examples (16x16, STP background)\n\n"
            << "Training VCO and BOC localizers on uniform-random STP windows...\n";

  // Train two frameworks on the same windows, differing only in the
  // localization feature.
  monitor::DatasetConfig data_cfg;
  data_cfg.mesh = mesh;
  data_cfg.scenarios_per_benchmark = preset.scenarios_per_benchmark;
  data_cfg.benign_samples_per_run = 2;
  data_cfg.attack_samples_per_run = 3;
  data_cfg.seed = 0xD4;
  const auto train = monitor::generate_dataset(
      data_cfg, {monitor::Benchmark{traffic::SyntheticPattern::UniformRandom}});

  core::Dl2FenceConfig vco_cfg = core::Dl2FenceConfig::paper_default(mesh);
  vco_cfg.localizer.feature = core::Feature::Vco;
  core::PipelineEngine vco_engine(vco_cfg);
  core::PipelineEngine boc_engine(core::Dl2FenceConfig::paper_default(mesh));

  core::LocalizerTrainConfig loc_cfg;
  loc_cfg.epochs = preset.localizer_epochs;
  core::train_localizer(vco_engine.mutable_localizer(), train, loc_cfg);
  core::train_localizer(boc_engine.mutable_localizer(), train, loc_cfg);

  // The paper's two showcase scenarios.
  traffic::AttackScenario one;
  one.attackers = {104};
  one.victim = 0;
  one.fir = 0.8;
  traffic::AttackScenario two;
  two.attackers = {192, 15};
  two.victim = 85;
  two.fir = 0.8;

  std::cout << "\nExample 1: attacker node 104, victim node 0\n";
  const auto w1 = capture_window(mesh, one, 0xE1);
  report("VCO", vco_engine, w1);
  report("BOC", boc_engine, w1);

  std::cout << "\nExample 2: attacker nodes 192, 15, victim node 85\n";
  const auto w2 = capture_window(mesh, two, 0xE2);
  report("VCO", vco_engine, w2);
  report("BOC", boc_engine, w2);

  std::cout << "\nPaper reference: example 1 BOC acc/prec/recall = 1/1/1; "
               "example 2 BOC = 0.96/1/0.96; VCO shows incomplete routes.\n";
  return 0;
}
