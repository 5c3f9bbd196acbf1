// The online closed loop: detect -> localize -> quarantine -> recover.
//
// The offline pipeline (core::PipelineEngine scored through a
// core::PipelineSession) rates monitoring windows after the fact;
// DefenseRuntime runs it *against a live simulation* and acts on the
// result — it owns a session of its own, so many runtimes can share one
// trained engine. Each monitoring window it
//   (1) advances the Simulation window_cycles (driving the attached
//       Scenario's dynamics cycle by cycle),
//   (2) samples VCO/BOC frames exactly as the training datasets do,
//   (3) runs the full detection/localization round, and
//   (4) mitigates on per-node evidence: a node the TLM names in
//       quarantine_votes consecutive windows is quarantined at its network
//       interface (Mesh::set_quarantined); a fenced node the TLM stops
//       naming for probation_windows consecutive windows is released — so
//       false positives recover even while a separate attack keeps the
//       detector busy, and a returning flooder is re-fenced as soon as it
//       is implicated again.
//
// Per-window benign latency (mean and p50/p99 via histogram diffs) is
// recorded so recovery — "benign latency back within recovery_ratio of its
// pre-attack baseline" — is measurable, not anecdotal.
#pragma once

#include <vector>

#include "core/evaluation.hpp"
#include "core/pipeline.hpp"
#include "monitor/sampler.hpp"
#include "monitor/window_history.hpp"
#include "runtime/scenario.hpp"
#include "traffic/simulation.hpp"

namespace dl2f::runtime {

struct DefenseConfig {
  std::int64_t window_cycles = 1000;  ///< monitoring window length (paper: 1000 for STP)
  bool mitigation_enabled = true;     ///< false = monitor-only (probation still releases)
  std::int32_t quarantine_votes = 1;  ///< consecutive windows naming a node before fencing
  std::int32_t probation_windows = 3; ///< consecutive windows not naming a fenced node before release
  /// Windows after a new quarantine action during which the temporal
  /// head's sequence verdict is suppressed (the single-window verdict
  /// stays live). The sequence head reads multi-window history, so it
  /// necessarily lags the fence: the first post-fence window pairs
  /// residual drain congestion with attack history — the head's one
  /// systematic false positive. Any attacker the fence missed still
  /// floods the current window and is caught by the single-window path.
  std::int32_t temporal_cooldown_windows = 1;
};

/// Everything observed and done in one monitoring window.
struct WindowRecord {
  std::int64_t index = 0;
  noc::Cycle start = 0;
  noc::Cycle end = 0;

  bool detected = false;
  float probability = 0.0F;
  /// Temporal-head sigmoid over the sliding window sequence (0 when the
  /// engine has no temporal head).
  float sequence_probability = 0.0F;
  std::vector<NodeId> tlm_attackers;  ///< TLM verdict (empty when not detected)

  std::vector<NodeId> newly_quarantined;
  std::vector<NodeId> released;
  std::vector<NodeId> quarantined;  ///< fence state after this window's actions

  double benign_latency = 0.0;  ///< mean benign packet latency inside this window
  double benign_p50 = 0.0;
  double benign_p99 = 0.0;
  std::int64_t benign_packets = 0;

  /// Ground truth (scenario-attached runs): attackers whose flooding was on
  /// at any cycle of the window and who were not fenced throughout it —
  /// i.e. attack traffic actually reached the network this window.
  bool truth_attack = false;
  std::vector<NodeId> truth_attackers;
};

/// Aggregate judgment of one run, in the units the campaign tables report.
struct DefenseSummary {
  std::int64_t windows = 0;
  core::Metrics4 detection;    ///< per-window verdicts vs ground truth
  core::Metrics4 attacker_id;  ///< TLM attacker sets vs ground truth (attack windows)

  noc::Cycle first_attack_cycle = -1;  ///< start of the first true attack window
  noc::Cycle detect_cycle = -1;        ///< end of the first true-positive window
  noc::Cycle mitigate_cycle = -1;  ///< end of the first window with every attacker that had flooded so far fenced
  noc::Cycle recover_cycle = -1;       ///< end of the first recovered window after mitigation

  double baseline_latency = 0.0;   ///< mean benign latency over pre-attack windows
  double baseline_p50 = 0.0;
  double baseline_p99 = 0.0;
  double peak_latency = 0.0;       ///< worst windowed benign latency observed
  double recovered_latency = 0.0;  ///< benign latency in the recovering window
  double recovery_ratio = 2.0;     ///< recovered means latency <= ratio * baseline

  /// Fence accounting (the serving SLO's cost side). A *fence event* is one
  /// node entering quarantine (a WindowRecord::newly_quarantined entry); a
  /// *false fence* is a fence event on a node that had never flooded up to
  /// and including that window — judged against the cumulative ground-truth
  /// attacker set, not the per-window one, so fencing a periodic attacker
  /// during its dormant phase is correctly NOT counted as false. The
  /// false-fence *rate* is normalized per monitoring window (events per
  /// window), which makes soak runs of different lengths comparable.
  std::int64_t fence_events = 0;
  std::int64_t false_fence_events = 0;
  [[nodiscard]] double false_fence_rate() const noexcept {
    return windows > 0 ? static_cast<double>(false_fence_events) / static_cast<double>(windows)
                       : 0.0;
  }

  [[nodiscard]] bool mitigated() const noexcept { return mitigate_cycle >= 0; }
  [[nodiscard]] bool recovered() const noexcept { return recover_cycle >= 0; }
  /// Cycles from first attack traffic to full mitigation (-1 when never).
  [[nodiscard]] noc::Cycle time_to_mitigate() const noexcept {
    return mitigated() ? mitigate_cycle - first_attack_cycle : -1;
  }
  /// End-to-end detection latency: cycles from the first attack traffic to
  /// the end of the first true-positive window (-1 when never detected).
  [[nodiscard]] noc::Cycle detection_latency() const noexcept {
    return (detect_cycle >= 0 && first_attack_cycle >= 0) ? detect_cycle - first_attack_cycle
                                                          : -1;
  }
};

class DefenseRuntime {
 public:
  /// `sim` and `engine` are borrowed and must outlive the runtime; the
  /// engine is expected to be trained for sim's mesh shape. The runtime
  /// owns its own PipelineSession, so any number of runtimes (one per
  /// worker, say) can share one engine.
  DefenseRuntime(traffic::Simulation& sim, const core::PipelineEngine& engine,
                 DefenseConfig cfg = {});

  /// Optional: attach the scenario driving the attack. Enables ground-truth
  /// scoring and lets the runtime advance the scenario's dynamics. Borrowed.
  void attach_scenario(Scenario* scenario) { scenario_ = scenario; }

  [[nodiscard]] const DefenseConfig& config() const noexcept { return cfg_; }

  /// Run one monitoring window end to end; returns a copy of the record
  /// (the full sequence stays in history()).
  WindowRecord run_window();
  void run_windows(std::int32_t count);

  /// Operator override: fence a node immediately (it still goes through
  /// normal probation release).
  void quarantine_now(NodeId node);

  [[nodiscard]] const std::vector<WindowRecord>& history() const noexcept { return history_; }
  [[nodiscard]] std::vector<NodeId> quarantined() const { return sim_.mesh().quarantined_nodes(); }

  [[nodiscard]] DefenseSummary summarize(double recovery_ratio = 2.0) const;

 private:
  void update_mitigation(const core::RoundResult& round, WindowRecord& rec);

  traffic::Simulation& sim_;
  core::PipelineSession session_;  ///< per-runtime scratch over the shared engine
  DefenseConfig cfg_;
  monitor::FeatureSampler sampler_;
  Scenario* scenario_ = nullptr;
  /// Sliding window-sequence buffer feeding the temporal head (length 1
  /// when the engine has none — the newest window is read back from it
  /// either way, so both paths share one sampling flow).
  monitor::WindowHistory windows_;

  std::vector<std::int32_t> votes_;         ///< per-node consecutive implicated windows
  std::vector<std::int32_t> clean_streak_;  ///< per-node consecutive unimplicated windows while fenced
  std::int32_t temporal_cooldown_ = 0;      ///< sequence-verdict suppression windows left
  std::vector<WindowRecord> history_;

  // Benign-stats snapshot at the last window boundary (for windowed deltas).
  double prev_benign_sum_ = 0.0;
  std::int64_t prev_benign_count_ = 0;
  std::vector<std::int64_t> prev_hist_;
};

}  // namespace dl2f::runtime
