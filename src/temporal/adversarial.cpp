#include "temporal/adversarial.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <iostream>
#include <stdexcept>
#include <utility>

#include "monitor/sampler.hpp"
#include "nn/loss.hpp"
#include "nn/train.hpp"
#include "traffic/simulation.hpp"

namespace dl2f::temporal {

std::vector<const monitor::FrameSample*> SequenceSample::view() const {
  std::vector<const monitor::FrameSample*> v;
  v.reserve(windows.size());
  for (const auto& w : windows) v.push_back(&w);
  return v;
}

std::size_t SequenceDataset::attack_count() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(samples.begin(), samples.end(), [](const auto& s) { return s.under_attack; }));
}

std::size_t SequenceDataset::benign_count() const noexcept {
  return samples.size() - attack_count();
}

namespace {

/// Stage one dataset sequence into batch slot `slot` (allocation-free:
/// the window pointers live on the stack).
void stage_sequence(const TemporalDetector& detector, const SequenceSample& seq,
                    nn::Tensor4& input, std::int32_t slot) {
  assert(seq.windows.size() <= static_cast<std::size_t>(kMaxSequenceLength));
  std::array<const monitor::FrameSample*, kMaxSequenceLength> ptrs{};
  for (std::size_t i = 0; i < seq.windows.size(); ++i) ptrs[i] = &seq.windows[i];
  detector.preprocess_into({ptrs.data(), seq.windows.size()}, input, slot);
}

/// One simulation run of one (family, workload) cell: DefenseRuntime-style
/// per-cycle stepping, one labeled sequence per window.
void collect_run(const SequenceDatasetConfig& cfg, const std::string& family,
                 const monitor::Benchmark& workload, std::uint64_t cell_seed, std::int32_t rep,
                 SequenceDataset& out) {
  runtime::ScenarioParams params = cfg.params;
  params.mesh = cfg.mesh;
  params.benign = workload;
  auto scenario = runtime::ScenarioRegistry::instance().make(family, params, cell_seed);
  if (scenario == nullptr) {
    throw std::invalid_argument("generate_sequence_dataset: unknown scenario family '" + family +
                                "'");
  }

  noc::MeshConfig mesh_cfg;
  mesh_cfg.shape = cfg.mesh;
  mesh_cfg.router = cfg.router;
  traffic::Simulation sim(mesh_cfg);
  // Same install-seed derivation as run_job (campaign.cpp), so a training
  // cell and a campaign cell with equal coordinates replay identically.
  scenario->install(sim, cell_seed ^ 0x9e3779b97f4a7c15ULL);

  const monitor::FeatureSampler sampler(cfg.mesh);
  monitor::WindowHistory history(cfg.sequence_length);
  const auto period = cfg.window_cycles;
  sim.mesh().reset_telemetry();

  // Mitigation tail: emulate the fence so post-mitigation sequences (attack
  // history, benign truth) exist in the benign class. Two regimes, because a
  // live DefenseRuntime produces both:
  //  - even reps fence LATE (last third of the run): the attack ran long,
  //    then a drain tail — the slow-detection regime;
  //  - odd reps replay the live fence-probation CYCLE: fence one window
  //    after the attack starts (quarantine_votes=1 online), release after
  //    three fenced windows (probation_windows=3 online), the attack
  //    resumes, re-fence one window later, repeat. Without this rep every
  //    training sequence holds 4+ attack windows before its drain, and the
  //    head both false-positives on the live loop's
  //    [benign, attack, drain, benign] shape and never sees a
  //    resume-after-release window labeled attack.
  const auto attack_window = static_cast<std::int32_t>(cfg.params.attack_start / period);
  const bool fence_cycle = cfg.mitigation_tail && rep % 2 == 1;
  const std::int32_t tail_from =
      cfg.mitigation_tail && !fence_cycle
          ? std::max(1, cfg.windows_per_run - cfg.windows_per_run / 3)
          : cfg.windows_per_run;
  std::int32_t fence_at = std::min(attack_window + 1, cfg.windows_per_run - 1);
  std::int32_t release_at = -1;

  for (std::int32_t w = 0; w < cfg.windows_per_run; ++w) {
    if (fence_cycle) {
      if (w == fence_at) {
        for (const NodeId a : scenario->all_attackers()) sim.mesh().set_quarantined(a, true);
        release_at = w + 3;  // probation_windows' live default
        fence_at = -1;
      } else if (w == release_at) {
        for (const NodeId a : scenario->all_attackers()) sim.mesh().set_quarantined(a, false);
        fence_at = w + 1;
        release_at = -1;
      }
    } else if (w == tail_from) {
      for (const NodeId a : scenario->all_attackers()) sim.mesh().set_quarantined(a, true);
    }
    // Mirror DefenseRuntime::run_window: advance the scenario dynamics
    // before every simulator step, and track whether attack traffic
    // actually reached the network at any cycle of the window (the label
    // — quarantined attackers put nothing on the wire, matching the
    // runtime's ground-truth convention).
    bool active = false;
    for (std::int64_t c = 0; c < period; ++c) {
      const auto now = sim.mesh().now();
      scenario->on_cycle(now);
      if (!active) {
        for (const NodeId a : scenario->active_attackers(now)) {
          if (!sim.mesh().quarantined(a)) {
            active = true;
            break;
          }
        }
      }
      sim.step();
    }

    monitor::FrameSample sample;
    sample.vco = sampler.sample_vco(sim.mesh(), /*reset=*/true);
    sample.boc = sampler.sample_boc(sim.mesh(), /*reset=*/true);
    sample.ni_load = sampler.sample_ni_load(sim.mesh(), /*reset=*/true);
    sample.window_cycles = period;
    sample.under_attack = active;
    history.push(std::move(sample));

    SequenceSample seq;
    seq.family = family;
    seq.workload = workload.name();
    seq.under_attack = active;
    const auto view = history.view();
    seq.windows.reserve(view.size());
    for (const monitor::FrameSample* s : view) seq.windows.push_back(*s);
    out.samples.push_back(std::move(seq));
  }
}

}  // namespace

SequenceDataset generate_sequence_dataset(const SequenceDatasetConfig& cfg,
                                          const std::vector<std::string>& families,
                                          const std::vector<monitor::Benchmark>& workloads) {
  assert(cfg.sequence_length >= 1 && cfg.sequence_length <= kMaxSequenceLength);
  SequenceDataset out;
  out.mesh = cfg.mesh;
  out.sequence_length = cfg.sequence_length;
  for (const auto& family : families) {
    for (const auto& workload : workloads) {
      for (std::int32_t rep = 0; rep < cfg.runs_per_cell; ++rep) {
        // Campaign seed convention: a pure function of grid coordinates.
        const std::uint64_t cell_seed = (cfg.seed + static_cast<std::uint64_t>(rep)) ^
                                        fnv1a(family) ^ mix64(fnv1a(workload.name()));
        collect_run(cfg, family, workload, cell_seed, rep, out);
      }
    }
  }
  return out;
}

TemporalTrainReport train_temporal_detector(TemporalDetector& detector,
                                            const SequenceDataset& data,
                                            const TemporalTrainConfig& cfg) {
  assert(data.sequence_length == detector.config().sequence_length);
  Rng rng(cfg.seed);
  detector.model().init_weights(rng);
  nn::Adam optimizer(detector.model().params(), cfg.learning_rate);

  nn::BatchTrainConfig bt;
  bt.epochs = cfg.epochs;
  bt.batch_size = cfg.batch_size;
  bt.threads = cfg.threads;

  TemporalTrainReport report;
  const auto stage = [&](std::size_t item, nn::Tensor4& input, std::int32_t slot) {
    stage_sequence(detector, data.samples[item], input, slot);
  };
  const auto loss = [&](std::size_t item, const float* pred, std::size_t n,
                        float* grad) -> nn::ItemLoss {
    const bool attack = data.samples[item].under_attack;
    const float target = attack ? 1.0F : 0.0F;
    const float weight = attack ? 1.0F : cfg.benign_weight;
    return {nn::bce_loss_into(pred, &target, n, weight, grad), 0.0};
  };
  const auto on_epoch = [&](std::int32_t epoch, float mean_loss, double /*metric*/) {
    report.final_loss = mean_loss;
    ++report.epochs_run;
    if (cfg.verbose) std::cout << "temporal epoch " << epoch << " loss " << mean_loss << '\n';
  };
  nn::batch_train(detector.model(), optimizer, detector.input_shape(), data.samples.size(), stage,
                  loss, bt, rng, on_epoch);
  return report;
}

ConfusionMatrix evaluate_temporal_detector(const TemporalDetector& detector,
                                           const SequenceDataset& data) {
  ConfusionMatrix cm;
  const float threshold = detector.config().threshold;
  const auto stage = [&](std::size_t item, nn::Tensor4& input, std::int32_t slot) {
    stage_sequence(detector, data.samples[item], input, slot);
  };
  const auto read = [&](std::size_t item, const float* out, std::size_t /*n*/) {
    cm.add(out[0] > threshold, data.samples[item].under_attack);
  };
  nn::infer_items(detector.model(), detector.input_shape(), data.samples.size(), stage, read);
  return cm;
}

}  // namespace dl2f::temporal
