// Parallel scenario-campaign engine: sweep a scenario-family ×
// benign-workload × seed grid of online defense runs on a worker pool and
// aggregate the results into the repo's TextTable reports.
//
// Scaling model: one complete, independent Simulation + DefenseRuntime per
// job; a worker pool of std::threads drains the job grid through an atomic
// cursor. The trained CNN pair is deserialized ONCE from the ModelSnapshot
// into a single const core::PipelineEngine that every worker shares by
// reference — each job's DefenseRuntime brings its own PipelineSession
// scratch — so jobs never share mutable state and results are
// byte-identical for any worker count (each job's randomness derives only
// from its own grid coordinates).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "runtime/defense.hpp"
#include "runtime/scenario.hpp"

namespace dl2f::runtime {

/// A trained pipeline frozen as bytes — the serialization format for
/// trained weights (files, fleets, checkpoints).
struct ModelSnapshot {
  core::Dl2FenceConfig config;
  std::string detector_weights;
  std::string localizer_weights;
  /// Temporal sequence head blob; empty when the engine has none (the
  /// config's enable_temporal flag and this blob travel together).
  std::string temporal_weights;

  static ModelSnapshot capture(const core::PipelineEngine& engine);

  /// Deserialize into a shareable engine (the one weight load a campaign
  /// performs). Throws std::runtime_error on an architecture mismatch, and
  /// when config.enable_temporal and the temporal blob disagree (a
  /// temporal head without weights would score with all-zero weights).
  [[nodiscard]] core::PipelineEngine make_engine() const;
};

/// Dataset/training budget for train_model_snapshot (defaults sized for
/// an 8x8 mesh in a few tens of seconds).
struct TrainPreset {
  std::int32_t scenarios = 8;
  std::int32_t benign_samples = 3;
  std::int32_t attack_samples = 3;
  std::int32_t detector_epochs = 50;
  std::int32_t localizer_epochs = 25;
  std::uint64_t seed = 0x5eedULL;
  /// Data-parallel training workers (nn::batch_train). The snapshot's
  /// weights are byte-identical for a given seed at any thread count, so
  /// this only trades wall-clock — campaigns stay reproducible.
  std::int32_t threads = 1;

  // --- temporal sequence head (src/temporal) ---

  /// Additionally train a temporal detector on an adversarial
  /// window-sequence grid and carry it in the snapshot. The resulting
  /// engine's DefenseRuntimes score sliding sequences (single-window OR
  /// temporal verdict), closing the evasive families' blind spots.
  bool temporal = false;
  std::int32_t sequence_length = 4;
  std::int32_t temporal_epochs = 30;
  /// Adversarial grid budget (temporal::SequenceDatasetConfig).
  std::int32_t temporal_windows_per_run = 12;
  std::int32_t temporal_runs_per_cell = 2;
  /// Scenario families mixed into the adversarial grid; empty = ALL
  /// registered families (builtin + evasive — the retraining preset).
  std::vector<std::string> adversarial_families;
  /// Benign workloads for the adversarial sequence grid; empty = the same
  /// benigns the base dataset trains on. Set explicitly when the campaign
  /// scores more workloads than the base mix: a sequence head that never
  /// saw a workload's benign rhythm will confidently flag it.
  std::vector<monitor::Benchmark> temporal_benigns;
};

/// Simulate, train and freeze a detector/localizer pair for `mesh` on the
/// given benign workload with FDoS overlays (the paper's VCO+BOC config).
[[nodiscard]] ModelSnapshot train_model_snapshot(const MeshShape& mesh,
                                                 const monitor::Benchmark& benign,
                                                 const TrainPreset& preset);

/// Same, pooling the training dataset over several benign workloads — the
/// model a cross-workload robustness campaign should start from (one
/// workload's traffic statistics do not transfer to the other eight).
[[nodiscard]] ModelSnapshot train_model_snapshot(const MeshShape& mesh,
                                                 const std::vector<monitor::Benchmark>& benigns,
                                                 const TrainPreset& preset);

struct CampaignConfig {
  /// Grid axes: every family must exist in ScenarioRegistry.
  std::vector<std::string> families = builtin_scenario_families();
  /// Third grid axis: benign workloads each (family, seed) cell runs
  /// against. Empty keeps the two-axis grid, running every job on
  /// params.benign (each job's workload name is still recorded).
  std::vector<monitor::Benchmark> workloads;
  std::vector<std::uint64_t> seeds = {1, 2, 3, 4};
  std::int32_t threads = 1;
  std::int32_t windows = 12;  ///< monitoring windows per job
  ScenarioParams params;      ///< params.mesh must match the model's mesh
  DefenseConfig defense;
  noc::RouterConfig router;
  double recovery_ratio = 2.0;
  /// Row-band shards for each job's Mesh::step (noc::MeshConfig::shards);
  /// 0 = auto. Results are bitwise identical at any value.
  std::int32_t mesh_shards = 0;
  /// Stepping threads per mesh (noc::MeshConfig::step_threads). Defaults
  /// to 1 — campaigns already parallelize across jobs, so per-mesh threads
  /// would only oversubscribe the pool. Bitwise identical at any value.
  std::int32_t mesh_step_threads = 1;
};

struct JobResult {
  std::string family;
  std::string workload;  ///< benign workload name (Benchmark::name())
  std::uint64_t seed = 0;
  DefenseSummary summary;
};

struct CampaignResult {
  /// Grid order: family-major, then workload, seed-minor.
  std::vector<JobResult> jobs;

  /// One aggregate row per family: detection accuracy, attacker-id F1,
  /// mitigation/recovery rates, mean time-to-mitigate and latency ratio.
  [[nodiscard]] TextTable family_table(const std::vector<std::string>& family_order) const;

  /// Deterministic fixed-precision dump of every job — equal strings mean
  /// equal campaigns (the worker-count determinism contract).
  [[nodiscard]] std::string serialize() const;
};

/// Run the full grid. Throws std::invalid_argument before any worker
/// starts if a family is not registered or cfg.params.mesh differs from
/// the snapshot's mesh.
[[nodiscard]] CampaignResult run_campaign(const CampaignConfig& cfg, const ModelSnapshot& model);

}  // namespace dl2f::runtime
