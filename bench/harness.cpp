#include "bench/harness.hpp"

#include <cstdlib>
#include <iostream>

#include "common/table.hpp"

namespace dl2f::bench {

ScalePreset scale_preset() {
  ScalePreset preset;
  const char* scale = std::getenv("DL2F_BENCH_SCALE");
  if (scale != nullptr && std::string_view(scale) == "paper") {
    preset.scenarios_per_benchmark = 18;  // paper §5: 18 scenarios/benchmark
    preset.benign_samples = 6;
    preset.attack_samples = 6;
    preset.detector_epochs = 80;
    preset.localizer_epochs = 30;
  }
  return preset;
}

monitor::Dataset merge_datasets(const std::vector<monitor::Dataset>& parts) {
  monitor::Dataset out;
  if (!parts.empty()) out.mesh = parts.front().mesh;
  for (const auto& p : parts) {
    out.samples.insert(out.samples.end(), p.samples.begin(), p.samples.end());
  }
  return out;
}

GroupResult run_group(const MeshShape& mesh,
                      const std::vector<monitor::Benchmark>& benchmarks,
                      core::Feature det_feature, core::Feature loc_feature,
                      const ScalePreset& preset, std::uint64_t seed, bool enable_vce) {
  // Per-benchmark protocol, matching the paper's per-benchmark columns:
  // each benchmark's 18 (scaled) attack scenarios are simulated, split,
  // and a model pair is trained on that benchmark's training windows and
  // scored on its held-out windows. (A single cross-benchmark model is
  // exercised by the Table 4 bench instead.)
  monitor::DatasetConfig data_cfg;
  data_cfg.mesh = mesh;
  data_cfg.scenarios_per_benchmark = preset.scenarios_per_benchmark;
  data_cfg.benign_samples_per_run = preset.benign_samples;
  data_cfg.attack_samples_per_run = preset.attack_samples;

  GroupResult result;
  std::uint64_t k = 0;
  for (const auto& bench : benchmarks) {
    data_cfg.seed = seed + 1000 * ++k;
    const auto data = monitor::generate_dataset(data_cfg, {bench});
    auto split = monitor::split_dataset(data, preset.test_fraction, data_cfg.seed + 7);

    core::Dl2FenceConfig cfg = core::Dl2FenceConfig::paper_default(mesh);
    cfg.detector.feature = det_feature;
    cfg.localizer.feature = loc_feature;
    cfg.enable_vce = enable_vce;
    core::PipelineEngine engine(cfg);

    core::TrainConfig det_cfg;
    det_cfg.epochs = preset.detector_epochs;
    det_cfg.seed = seed + 21;
    core::train_detector(engine.mutable_detector(), split.train, det_cfg);

    core::LocalizerTrainConfig loc_cfg;
    loc_cfg.epochs = preset.localizer_epochs;
    loc_cfg.seed = seed + 22;
    core::train_localizer(engine.mutable_localizer(), split.train, loc_cfg);

    // Score the held-out windows through the batched engine path.
    result.scores.push_back(core::score_benchmark(engine, bench.name(), split.test));
    result.train_windows += split.train.samples.size();
    result.test_windows += split.test.samples.size();
  }
  result.average = core::average_scores(result.scores, "Average");
  return result;
}

void print_table(const std::string& title, const GroupResult& stp, const GroupResult& parsec) {
  std::cout << title << "\n";
  std::cout << "(detection | localization per cell; trained on " << stp.train_windows
            << " STP + " << parsec.train_windows << " PARSEC windows, scored on "
            << stp.test_windows << " + " << parsec.test_windows << " held-out windows)\n\n";

  std::vector<std::string> header{"Metric"};
  for (const auto& s : stp.scores) header.push_back(s.benchmark);
  header.push_back("Average");
  for (const auto& s : parsec.scores) header.push_back(s.benchmark);
  header.push_back("Average");

  TextTable table(header);
  const auto row = [&](const std::string& name, auto select) {
    std::vector<std::string> cells{name};
    for (const auto& s : stp.scores) {
      cells.push_back(TextTable::pair_cell(select(s.detection), select(s.localization)));
    }
    cells.push_back(
        TextTable::pair_cell(select(stp.average.detection), select(stp.average.localization)));
    for (const auto& s : parsec.scores) {
      cells.push_back(TextTable::pair_cell(select(s.detection), select(s.localization)));
    }
    cells.push_back(TextTable::pair_cell(select(parsec.average.detection),
                                         select(parsec.average.localization)));
    table.add_row(std::move(cells));
  };
  row("Accuracy", [](const core::Metrics4& m) { return m.accuracy; });
  row("Precision", [](const core::Metrics4& m) { return m.precision; });
  row("Recall", [](const core::Metrics4& m) { return m.recall; });
  row("F1 Score", [](const core::Metrics4& m) { return m.f1; });
  std::cout << table << std::endl;
}

}  // namespace dl2f::bench
