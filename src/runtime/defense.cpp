#include "runtime/defense.hpp"

#include <algorithm>
#include <cassert>

namespace dl2f::runtime {

DefenseRuntime::DefenseRuntime(traffic::Simulation& sim, const core::PipelineEngine& engine,
                               DefenseConfig cfg)
    : sim_(sim), session_(engine, /*max_batch=*/1), cfg_(cfg),
      sampler_(sim.mesh().shape()),
      windows_(engine.has_temporal() ? engine.config().temporal.sequence_length : 1) {
  assert(engine.config().detector.mesh == sim.mesh().shape());
  const auto n = static_cast<std::size_t>(sim.mesh().shape().node_count());
  votes_.assign(n, 0);
  clean_streak_.assign(n, 0);
  // Window 0 starts here: clear the feature counters and snapshot the
  // benign-latency accumulators so the first window's deltas are its own.
  sim_.mesh().reset_telemetry();
  auto& bs = sim_.mesh().benign_stats();
  bs.reset_window_max();
  prev_benign_sum_ = bs.packet_latency_sum();
  prev_benign_count_ = bs.packets_ejected();
  prev_hist_ = bs.packet_latency_histogram();
}

WindowRecord DefenseRuntime::run_window() {
  auto& mesh = sim_.mesh();
  WindowRecord rec;
  rec.index = static_cast<std::int64_t>(history_.size());
  rec.start = mesh.now();

  // Union of attackers active at any cycle of the window: a midpoint (or
  // boundary) sample would alias with periodic attacks whose bursts dodge
  // the sample instant.
  std::vector<NodeId> active_union;
  for (std::int64_t c = 0; c < cfg_.window_cycles; ++c) {
    if (scenario_ != nullptr) {
      scenario_->on_cycle(mesh.now());
      for (const NodeId a : scenario_->active_attackers(mesh.now())) {
        if (std::find(active_union.begin(), active_union.end(), a) == active_union.end()) {
          active_union.push_back(a);
        }
      }
    }
    sim_.step();
  }
  rec.end = mesh.now();

  // Sample the window exactly as the training datasets do (VCO averaged
  // since the last reset, BOC accumulated since the last reset; each
  // feature restarts its own window after the read, so the order here is
  // immaterial).
  monitor::FrameSample sample;
  sample.vco = sampler_.sample_vco(mesh, /*reset=*/true);
  sample.boc = sampler_.sample_boc(mesh, /*reset=*/true);
  sample.ni_load = sampler_.sample_ni_load(mesh, /*reset=*/true);
  sample.window_cycles = cfg_.window_cycles;
  windows_.push(std::move(sample));
  // Temporal engines score the sliding sequence (single-window verdict
  // OR temporal verdict, plus the colluding-source assist); single-window
  // engines score the newest window exactly as before. While a post-fence
  // cooldown is active, the sequence verdict is suppressed (see
  // DefenseConfig::temporal_cooldown_windows) and only the single-window
  // path scores this window.
  const bool temporal_live = session_.engine().has_temporal() && temporal_cooldown_ == 0;
  if (temporal_cooldown_ > 0) --temporal_cooldown_;
  const core::RoundResult round = temporal_live ? session_.process_sequence(windows_.view())
                                                : session_.process(windows_.latest());
  rec.detected = round.detected;
  rec.probability = round.probability;
  rec.sequence_probability = round.sequence_probability;
  rec.tlm_attackers = round.tlm.attackers;

  // Windowed benign latency: deltas of the cumulative accumulators.
  auto& bs = mesh.benign_stats();
  const double sum = bs.packet_latency_sum();
  const std::int64_t count = bs.packets_ejected();
  rec.benign_packets = count - prev_benign_count_;
  rec.benign_latency =
      rec.benign_packets > 0 ? (sum - prev_benign_sum_) / static_cast<double>(rec.benign_packets)
                             : 0.0;
  const auto& hist = bs.packet_latency_histogram();
  std::vector<std::int64_t> window_hist(hist.size());
  for (std::size_t i = 0; i < hist.size(); ++i) window_hist[i] = hist[i] - prev_hist_[i];
  // A congested window can push its tail past the histogram range; when a
  // percentile lands in the overflow bucket, report THIS window's true
  // observed maximum (tracked exactly, reset every window boundary)
  // rather than the bucket clamp or a stale run-wide extreme.
  const auto overflow = static_cast<double>(bs.window_max_packet_latency());
  rec.benign_p50 = noc::histogram_percentile(window_hist, 0.50, overflow);
  rec.benign_p99 = noc::histogram_percentile(window_hist, 0.99, overflow);
  bs.reset_window_max();
  prev_benign_sum_ = sum;
  prev_benign_count_ = count;
  prev_hist_ = hist;

  // Ground truth before this window's mitigation actions: the fence state
  // seen here is the one that held throughout the window (fencing only
  // changes at window boundaries), so an attacker quarantined all along
  // put no traffic on the wire and does not count.
  if (scenario_ != nullptr) {
    std::sort(active_union.begin(), active_union.end());
    for (const NodeId a : active_union) {
      if (!mesh.quarantined(a)) rec.truth_attackers.push_back(a);
    }
    rec.truth_attack = !rec.truth_attackers.empty();
  }

  update_mitigation(round, rec);
  rec.quarantined = mesh.quarantined_nodes();
  if (!rec.newly_quarantined.empty()) temporal_cooldown_ = cfg_.temporal_cooldown_windows;

  history_.push_back(rec);
  return rec;
}

void DefenseRuntime::run_windows(std::int32_t count) {
  for (std::int32_t i = 0; i < count; ++i) run_window();
}

void DefenseRuntime::update_mitigation(const core::RoundResult& round, WindowRecord& rec) {
  auto& mesh = sim_.mesh();
  // Per-node evidence: what matters for both fencing and release is
  // whether *this node* was named by the TLM this window — a global dirty
  // verdict must not hold an unimplicated node hostage (an attack by
  // someone else would otherwise block a false positive's release), and
  // votes must not pool across unrelated windows.
  std::vector<char> named(votes_.size(), 0);
  if (round.detected) {
    for (const NodeId a : round.tlm.attackers) {
      if (mesh.shape().valid(a)) named[static_cast<std::size_t>(a)] = 1;
    }
  }

  for (std::size_t node = 0; node < votes_.size(); ++node) {
    const auto id = static_cast<NodeId>(node);
    if (mesh.quarantined(id)) {
      // Probation: released after probation_windows consecutive windows
      // in which the TLM does not implicate the node. Runs in every mode
      // so an operator-fenced node recovers even with mitigation off.
      if (named[node] != 0) {
        clean_streak_[node] = 0;
      } else if (++clean_streak_[node] >= cfg_.probation_windows) {
        mesh.set_quarantined(id, false);
        votes_[node] = 0;
        clean_streak_[node] = 0;
        rec.released.push_back(id);
      }
    } else if (named[node] != 0) {
      // Fencing: quarantine_votes consecutive implicating windows.
      ++votes_[node];
      if (cfg_.mitigation_enabled && votes_[node] >= cfg_.quarantine_votes) {
        mesh.set_quarantined(id, true);
        clean_streak_[node] = 0;
        rec.newly_quarantined.push_back(id);
      }
    } else {
      votes_[node] = 0;  // evidence does not pool across non-consecutive windows
    }
  }
}

void DefenseRuntime::quarantine_now(NodeId node) {
  assert(sim_.mesh().shape().valid(node));
  sim_.mesh().set_quarantined(node, true);
  clean_streak_[static_cast<std::size_t>(node)] = 0;
  votes_[static_cast<std::size_t>(node)] =
      std::max(votes_[static_cast<std::size_t>(node)], cfg_.quarantine_votes);
}

DefenseSummary DefenseRuntime::summarize(double recovery_ratio) const {
  DefenseSummary s;
  s.windows = static_cast<std::int64_t>(history_.size());
  s.recovery_ratio = recovery_ratio;
  if (history_.empty()) return s;

  ConfusionMatrix cm;
  core::LocalizationScore attacker_score;
  std::int64_t first_attack_index = -1;
  // Attackers that have actually flooded so far. Mitigation is judged
  // against this cumulative set each window — fencing often lands in a
  // window where a periodic attack is dormant (truth_attack false), and
  // once fenced an attacker drops out of later windows' truth sets, so
  // per-window truth alone could never certify mitigation.
  std::vector<NodeId> seen_attackers;

  for (const auto& w : history_) {
    if (scenario_ != nullptr) {
      cm.add(w.detected, w.truth_attack);
      if (w.truth_attack) attacker_score.add(w.tlm_attackers, w.truth_attackers);
    }
    if (w.truth_attack && first_attack_index < 0) {
      first_attack_index = w.index;
      s.first_attack_cycle = w.start;
    }
    if (w.truth_attack && w.detected && s.detect_cycle < 0) s.detect_cycle = w.end;
    s.peak_latency = std::max(s.peak_latency, w.benign_latency);
    for (const NodeId a : w.truth_attackers) {
      if (std::find(seen_attackers.begin(), seen_attackers.end(), a) == seen_attackers.end()) {
        seen_attackers.push_back(a);
      }
    }
    // Fence accounting: judged against the cumulative attacker set with
    // this window's truth already merged, so fencing a node in the very
    // window it starts flooding counts as a true fence.
    for (const NodeId q : w.newly_quarantined) {
      ++s.fence_events;
      if (scenario_ != nullptr &&
          std::find(seen_attackers.begin(), seen_attackers.end(), q) == seen_attackers.end()) {
        ++s.false_fence_events;
      }
    }
    if (s.mitigate_cycle < 0 && !seen_attackers.empty()) {
      const bool all_fenced = std::all_of(
          seen_attackers.begin(), seen_attackers.end(), [&](NodeId a) {
            return std::find(w.quarantined.begin(), w.quarantined.end(), a) !=
                   w.quarantined.end();
          });
      if (all_fenced) s.mitigate_cycle = w.end;
    }
  }
  s.detection = core::detection_metrics(cm);
  s.attacker_id = attacker_score.metrics();

  // Baseline: windows strictly before the first attack window (falling
  // back to the first window when the attack starts immediately).
  double base_sum = 0.0, base_p50 = 0.0, base_p99 = 0.0;
  std::int64_t base_n = 0;
  for (const auto& w : history_) {
    if (first_attack_index >= 0 && w.index >= first_attack_index) break;
    base_sum += w.benign_latency;
    base_p50 += w.benign_p50;
    base_p99 += w.benign_p99;
    ++base_n;
  }
  if (base_n == 0) {
    const auto& w0 = history_.front();
    base_sum = w0.benign_latency;
    base_p50 = w0.benign_p50;
    base_p99 = w0.benign_p99;
    base_n = 1;
  }
  s.baseline_latency = base_sum / static_cast<double>(base_n);
  s.baseline_p50 = base_p50 / static_cast<double>(base_n);
  s.baseline_p99 = base_p99 / static_cast<double>(base_n);

  if (s.mitigate_cycle >= 0) {
    for (const auto& w : history_) {
      if (w.start < s.mitigate_cycle || w.benign_packets <= 0) continue;
      if (w.benign_latency <= recovery_ratio * s.baseline_latency) {
        s.recover_cycle = w.end;
        s.recovered_latency = w.benign_latency;
        break;
      }
    }
  }
  return s;
}

}  // namespace dl2f::runtime
