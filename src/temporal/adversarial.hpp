// Adversarial retraining grid for the temporal detector.
//
// The base training set (monitor/dataset.hpp) contains only static
// flooding — the paper's threat model. A detector trained on it has never
// seen a pulse trough, a stealth ramp's early windows, or six colluding
// sources each below threshold, which is exactly why the robustness matrix
// shows blind spots. This module generates window-SEQUENCE training data
// by running the registered scenario families (static AND evasive) over
// benign workloads with the same per-cycle stepping the DefenseRuntime
// uses online, labeling each sequence by the ground-truth attacker
// activity in its newest window.
//
// Seeding follows the campaign convention: each (family, workload, rep)
// cell's randomness is a pure function of its grid coordinates, so the
// dataset — and therefore the trained weights — is byte-identical across
// runs and thread counts.
#pragma once

#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "monitor/benchmark.hpp"
#include "noc/router.hpp"
#include "runtime/scenario.hpp"
#include "temporal/detector.hpp"

namespace dl2f::temporal {

/// One labeled training sequence: sequence_length consecutive windows
/// (oldest first, warmup-padded exactly as WindowHistory pads live runs).
struct SequenceSample {
  std::vector<monitor::FrameSample> windows;
  /// Attack traffic was active at some point during the NEWEST window.
  bool under_attack = false;
  std::string family;
  std::string workload;

  /// Pointer view over `windows` for TemporalDetector::preprocess_into.
  /// Valid until `windows` is mutated.
  [[nodiscard]] std::vector<const monitor::FrameSample*> view() const;
};

struct SequenceDataset {
  MeshShape mesh = MeshShape::square(8);
  std::int32_t sequence_length = 4;
  std::vector<SequenceSample> samples;

  [[nodiscard]] std::size_t attack_count() const noexcept;
  [[nodiscard]] std::size_t benign_count() const noexcept;
};

struct SequenceDatasetConfig {
  MeshShape mesh = MeshShape::square(8);
  noc::RouterConfig router;
  std::int32_t sequence_length = 4;
  /// Monitoring windows simulated (= sequences emitted) per run.
  std::int32_t windows_per_run = 12;
  /// Cycles per monitoring window. Must match the window length the
  /// consuming DefenseRuntime samples at (DefenseConfig::window_cycles) —
  /// NOT the workload's dataset sample_period, which differs for PARSEC
  /// traces and would train the head on windows twice as long as the ones
  /// it scores online.
  std::int64_t window_cycles = 1000;
  /// Independent runs (distinct seeds / attacker placements) per
  /// (family, workload) cell.
  std::int32_t runs_per_cell = 2;
  /// Attack knobs; mesh and benign workload are overwritten per cell.
  runtime::ScenarioParams params;
  /// Emulate mitigation: quarantine every attacker for the final third of
  /// each run. Those windows are truth-benign (no attack traffic reaches
  /// the network) but their sequences still hold attack windows in the
  /// history — exactly the post-mitigation regime a live DefenseRuntime
  /// scores, and the one a head trained only on attack-then-more-attack
  /// runs would false-positive on.
  bool mitigation_tail = true;
  std::uint64_t seed = 0x7e3aULL;
};

/// Run the (families x workloads x runs_per_cell) grid and collect one
/// labeled sequence per simulated window. Families must be registered in
/// the ScenarioRegistry (throws std::invalid_argument otherwise, matching
/// run_campaign). The benign prefix before ScenarioParams::attack_start
/// supplies the negative class.
[[nodiscard]] SequenceDataset generate_sequence_dataset(
    const SequenceDatasetConfig& cfg, const std::vector<std::string>& families,
    const std::vector<monitor::Benchmark>& workloads);

/// Train on a SequenceDataset through nn::batch_train — same fixed-order
/// gradient reduction as the single-window trainers, so weights are
/// byte-identical at any cfg.threads.
TemporalTrainReport train_temporal_detector(TemporalDetector& detector,
                                            const SequenceDataset& data,
                                            const TemporalTrainConfig& cfg);

/// Score every sequence in `data` (batched through nn::infer_items; a
/// sequence is flagged when its probability exceeds the config threshold).
[[nodiscard]] ConfusionMatrix evaluate_temporal_detector(const TemporalDetector& detector,
                                                         const SequenceDataset& data);

}  // namespace dl2f::temporal
