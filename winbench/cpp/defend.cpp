// The live defended-window workloads (defend-8x8-burst,
// defend-16x16-uniform): a fixed plan of episodes, each a fresh
// Simulation + Scenario + DefenseRuntime run for a fixed number of
// windows in a closed loop, replayed until the run's time is spent.
//
// The traced run splits each window across layers without touching the
// library: a Scenario decorator marks the start of every cycle, and one
// forwarding TrafficGenerator per generator the wrapped scenario installs
// times that generator's tick.
#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "monitor/benchmark.hpp"
#include "noc/stats.hpp"
#include "runtime/defense.hpp"
#include "runtime/scenario.hpp"
#include "workload/endpoint.hpp"

namespace winbench {

using namespace dl2f;

namespace {

// ------------------------------------------------------------------ plans

struct Plan {
  MeshShape mesh = MeshShape::square(8);
  const char* snapshot = kSnapshot8;
  monitor::Benchmark benign{traffic::SyntheticPattern::UniformRandom};
  std::int32_t episodes = 0;
  std::int32_t windows = 0;        ///< per episode
  std::int32_t attack_window = 0;  ///< the flood switches on at this window
  bool mitigation = true;
  /// Attackers of episode e: attackers[e % size].
  std::vector<std::int32_t> attackers;

  [[nodiscard]] std::int64_t total_windows() const {
    return static_cast<std::int64_t>(episodes) * windows;
  }
};

Plan make_plan(const std::string& name) {
  Plan p;
  if (name == "defend-8x8-burst") {
    p.mesh = MeshShape::square(8);
    p.snapshot = kSnapshot8;
    p.benign = monitor::Benchmark{workload::TraceWorkloadKind::OpenLoopBurst};
    p.episodes = 32;
    p.windows = 8;
    p.attack_window = 3;
    p.mitigation = true;
    p.attackers = {2};
  } else if (name == "defend-16x16-uniform") {
    p.mesh = MeshShape::square(16);
    p.snapshot = kSnapshot16;
    p.benign = monitor::Benchmark{traffic::SyntheticPattern::UniformRandom};
    p.episodes = 16;
    p.windows = 4;
    p.attack_window = 1;
    p.mitigation = false;
    p.attackers = {1, 2};
  } else {
    throw std::invalid_argument("unknown workload " + name);
  }
  return p;
}

// ----------------------------------------------------------------- probes

enum Span : std::size_t { kScenario, kWorkload, kTraffic, kNoc, kRound, kSpans };
using SpanTimes = std::array<double, kSpans>;

/// Attributes the intervals between probe events of one window to spans.
/// Per cycle: [mark .. first tick) is the scenario, each tick is its
/// generator's class, and [last tick end .. next mark) is the mesh step.
class SpanClock {
 public:
  void begin_window() {
    acc_ = {};
    cycles_ = 0;
    have_tick_end_ = false;
  }
  void mark_cycle() {
    const auto t = Clock::now();
    if (have_tick_end_) acc_[kNoc] += seconds_between(last_tick_end_, t);
    cycle_start_ = t;
    first_tick_ = true;
    ++cycles_;
  }
  [[nodiscard]] Clock::time_point tick_begin() {
    const auto t = Clock::now();
    if (first_tick_) {
      acc_[kScenario] += seconds_between(cycle_start_, t);
      first_tick_ = false;
    }
    return t;
  }
  void tick_end(Span span, Clock::time_point begin) {
    last_tick_end_ = Clock::now();
    acc_[span] += seconds_between(begin, last_tick_end_);
    have_tick_end_ = true;
  }
  /// Close the window at `end` (run_window returned). The tail after the
  /// last tick is the last mesh step plus the round; the step is
  /// estimated as this window's mean step.
  [[nodiscard]] SpanTimes end_window(Clock::time_point end) {
    SpanTimes out = acc_;
    const double tail = have_tick_end_ ? seconds_between(last_tick_end_, end) : 0.0;
    const double mean_step = cycles_ > 1 ? acc_[kNoc] / static_cast<double>(cycles_ - 1) : 0.0;
    out[kNoc] += mean_step;
    out[kRound] = tail - mean_step;
    return out;
  }

 private:
  SpanTimes acc_{};
  std::int64_t cycles_ = 0;
  Clock::time_point cycle_start_{}, last_tick_end_{};
  bool first_tick_ = false;
  bool have_tick_end_ = false;
};

class ProbeGenerator final : public traffic::TrafficGenerator {
 public:
  ProbeGenerator(traffic::TrafficGenerator* inner, Span span, SpanClock* clock)
      : inner_(inner), span_(span), clock_(clock) {}
  void tick(noc::Mesh& mesh) override {
    const auto begin = clock_->tick_begin();
    inner_->tick(mesh);
    clock_->tick_end(span_, begin);
  }

 private:
  traffic::TrafficGenerator* inner_;
  Span span_;
  SpanClock* clock_;
};

/// Forwards every call to the wrapped scenario. install() lets the wrapped
/// scenario install into a private staging Simulation, then installs one
/// ProbeGenerator per staged generator, in order, into the real one.
class ProbeScenario final : public runtime::Scenario {
 public:
  ProbeScenario(std::unique_ptr<runtime::Scenario> inner, SpanClock* clock)
      : Scenario(inner->family()), inner_(std::move(inner)), clock_(clock) {}

  void install(traffic::Simulation& sim, std::uint64_t seed) override {
    noc::MeshConfig staging_cfg;
    staging_cfg.shape = MeshShape::square(2);
    staging_cfg.shards = 1;
    staging_cfg.step_threads = 1;
    staging_ = std::make_unique<traffic::Simulation>(staging_cfg);
    inner_->install(*staging_, seed);
    for (const auto& gen : staging_->generators()) {
      const bool is_workload =
          dynamic_cast<workload::RequestReplyWorkload*>(gen.get()) != nullptr;
      sim.emplace_generator<ProbeGenerator>(gen.get(), is_workload ? kWorkload : kTraffic,
                                            clock_);
    }
  }
  void on_cycle(noc::Cycle now) override {
    clock_->mark_cycle();
    inner_->on_cycle(now);
  }
  [[nodiscard]] std::vector<NodeId> active_attackers(noc::Cycle at) const override {
    return inner_->active_attackers(at);
  }
  [[nodiscard]] std::vector<NodeId> all_attackers() const override {
    return inner_->all_attackers();
  }
  [[nodiscard]] const traffic::Simulation& staging() const { return *staging_; }

 private:
  std::unique_ptr<runtime::Scenario> inner_;
  SpanClock* clock_;
  std::unique_ptr<traffic::Simulation> staging_;  ///< owns the wrapped generators
};

// ------------------------------------------------------------- episodes

/// Member order matters: the runtime goes first, then the scenario (whose
/// staged workload unregisters from the live mesh), then the simulation.
struct Episode {
  std::unique_ptr<traffic::Simulation> sim;
  std::unique_ptr<runtime::Scenario> scenario;
  std::unique_ptr<runtime::DefenseRuntime> runtime;
  const workload::RequestReplyWorkload* workload = nullptr;
};

struct Online {
  std::unique_ptr<core::PipelineEngine> engine;  ///< outlives every episode
  std::vector<Episode> episodes;
};

const workload::RequestReplyWorkload* find_workload(const traffic::Simulation& sim) {
  for (const auto& gen : sim.generators()) {
    if (const auto* w = dynamic_cast<const workload::RequestReplyWorkload*>(gen.get())) return w;
  }
  return nullptr;
}

/// Bring the defense online from the prepared files: read the snapshot,
/// build the engine, then every episode's Simulation/Scenario/Runtime.
Online bring_online(const Plan& plan, const RunArgs& args, SpanClock* clock, SetupTimes& t) {
  Online online;
  const auto t0 = Clock::now();
  const runtime::ModelSnapshot snap = read_snapshot(args.cache / plan.snapshot);
  const auto t1 = Clock::now();
  online.engine = std::make_unique<core::PipelineEngine>(snap.make_engine());
  const auto t2 = Clock::now();

  runtime::DefenseConfig defense;
  defense.mitigation_enabled = plan.mitigation;
  online.episodes.resize(static_cast<std::size_t>(plan.episodes));
  for (std::int32_t e = 0; e < plan.episodes; ++e) {
    runtime::ScenarioParams params;
    params.mesh = plan.mesh;
    params.benign = plan.benign;
    params.num_attackers = plan.attackers[static_cast<std::size_t>(e) % plan.attackers.size()];
    params.attack_start = plan.attack_window * defense.window_cycles;
    // Attack placements are a fixed panel (workload name + episode index);
    // --seed drives only the traffic streams.
    const std::uint64_t placement =
        mix64(fnv1a(args.workload) + static_cast<std::uint64_t>(e));
    const std::uint64_t streams = mix64(args.seed ^ mix64(placement));

    Episode& ep = online.episodes[static_cast<std::size_t>(e)];
    noc::MeshConfig mesh_cfg;
    mesh_cfg.shape = plan.mesh;
    mesh_cfg.shards = 1;
    mesh_cfg.step_threads = 1;
    ep.sim = std::make_unique<traffic::Simulation>(mesh_cfg);
    ep.scenario = runtime::ScenarioRegistry::instance().make("static", params, placement);
    if (clock != nullptr) {
      auto probe = std::make_unique<ProbeScenario>(std::move(ep.scenario), clock);
      probe->install(*ep.sim, streams);
      ep.workload = find_workload(probe->staging());
      ep.scenario = std::move(probe);
    } else {
      ep.scenario->install(*ep.sim, streams);
      ep.workload = find_workload(*ep.sim);
    }
    ep.runtime = std::make_unique<runtime::DefenseRuntime>(*ep.sim, *online.engine, defense);
    ep.runtime->attach_scenario(ep.scenario.get());
  }
  const auto t3 = Clock::now();
  t.read = seconds_between(t0, t1);
  t.engine = seconds_between(t1, t2);
  t.plan = seconds_between(t2, t3);
  return online;
}

// ------------------------------------------------------------------ passes

struct WindowOut {
  runtime::WindowRecord rec;
  bool ok = false;  ///< run_window returned
  double seconds = 0.0;
  SpanTimes spans{};
};

struct PassOut {
  std::vector<WindowOut> windows;  ///< episode-major
  std::vector<runtime::DefenseSummary> summaries;
  std::int64_t flits_ejected = 0;
  std::int64_t cycles = 0;
  std::int64_t requests_issued = 0;
  std::int64_t replies_completed = 0;
  std::vector<std::int64_t> hist_before, hist_after;  ///< pooled reply histograms
  noc::Cycle max_before = 0, max_after = 0;

  [[nodiscard]] double seconds() const {
    double s = 0.0;
    for (const auto& w : windows) s += w.seconds;
    return s;
  }
};

void add_into(std::vector<std::int64_t>& acc, const std::vector<std::int64_t>& v) {
  if (acc.size() < v.size()) acc.resize(v.size(), 0);
  for (std::size_t i = 0; i < v.size(); ++i) acc[i] += v[i];
}

PassOut run_pass(const Plan& plan, Online& online, SpanClock* clock) {
  PassOut out;
  out.windows.resize(static_cast<std::size_t>(plan.total_windows()));
  for (std::int32_t e = 0; e < plan.episodes; ++e) {
    Episode& ep = online.episodes[static_cast<std::size_t>(e)];
    for (std::int32_t w = 0; w < plan.windows; ++w) {
      WindowOut& slot = out.windows[static_cast<std::size_t>(e * plan.windows + w)];
      if (ep.workload != nullptr && w == plan.attack_window) {
        add_into(out.hist_before, ep.workload->reply_latency_histogram());
        out.max_before = std::max(out.max_before, ep.workload->stats().reply_latency_max);
      }
      try {
        if (clock != nullptr) clock->begin_window();
        const auto t0 = Clock::now();
        slot.rec = ep.runtime->run_window();
        const auto t1 = Clock::now();
        slot.seconds = seconds_between(t0, t1);
        if (clock != nullptr) slot.spans = clock->end_window(t1);
        slot.ok = true;
      } catch (const std::exception&) {
        break;  // the episode's remaining windows stay !ok
      }
    }
    out.summaries.push_back(ep.runtime->summarize());
    out.flits_ejected += ep.sim->mesh().stats().flits_ejected();
    out.cycles += ep.sim->mesh().now();
    if (ep.workload != nullptr) {
      out.requests_issued += ep.workload->stats().requests_issued;
      out.replies_completed += ep.workload->stats().replies_completed;
      add_into(out.hist_after, ep.workload->reply_latency_histogram());
      out.max_after = std::max(out.max_after, ep.workload->stats().reply_latency_max);
    }
  }
  return out;
}

bool same_record(const runtime::WindowRecord& a, const runtime::WindowRecord& b) {
  return a.index == b.index && a.start == b.start && a.end == b.end && a.detected == b.detected &&
         same_bits(a.probability, b.probability) &&
         same_bits(a.sequence_probability, b.sequence_probability) &&
         a.tlm_attackers == b.tlm_attackers && a.newly_quarantined == b.newly_quarantined &&
         a.released == b.released && a.benign_packets == b.benign_packets;
}

double mean_of_nonnegative(const std::vector<double>& v) {
  double sum = 0.0;
  std::int64_t n = 0;
  for (const double x : v) {
    if (x >= 0.0) {
      sum += x;
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : -1.0;
}

}  // namespace

void run_defend(const RunArgs& args, RunLog& log, Figures& f, Outcome& out) {
  const auto deadline = Clock::now() + std::chrono::duration<double>(args.seconds);
  const Plan plan = make_plan(args.workload);
  const auto n_windows = static_cast<std::size_t>(plan.total_windows());
  log.plan = std::to_string(plan.episodes) + " episodes x " + std::to_string(plan.windows) +
             " windows, flood from window " + std::to_string(plan.attack_window);

  // Three set-up passes before every pass; the last one's defense runs it.
  const auto online_after_setups = [&](SpanClock* clock) {
    for (int i = 0; i < 2; ++i) {
      SetupTimes t;
      (void)bring_online(plan, args, nullptr, t);
      log.setups.add(t);
    }
    SetupTimes t;
    Online online = bring_online(plan, args, clock, t);
    if (clock == nullptr) log.setups.add(t);
    return online;
  };

  // Reference pass: every later replay must reproduce it bit for bit.
  const PassOut ref = [&] {
    Online first = online_after_setups(nullptr);
    return run_pass(plan, first, nullptr);
  }();
  out.attempted += static_cast<std::int64_t>(n_windows);
  const auto threw = std::count_if(ref.windows.begin(), ref.windows.end(),
                                   [](const WindowOut& w) { return !w.ok; });
  if (threw > 0) {
    out.failed += threw;
    out.fail("reference pass: run_window threw in " + std::to_string(threw) + " window(s)");
  }

  ReplayMinima plain, traced;
  std::array<ReplayMinima, kSpans> spans;
  SpanClock clock;
  for (std::int64_t pass = 1;; ++pass) {
    const bool enough = log.plain_passes >= 2 && (!args.trace || log.traced_passes >= 2);
    if (enough && Clock::now() >= deadline) break;
    log.ref_loop_us = std::min(log.ref_loop_us, time_reference_loop());
    // The traced run alternates traced and untraced replays.
    const bool tracing = args.trace && pass % 2 == 1;
    SpanClock* probe = tracing ? &clock : nullptr;
    Online online = online_after_setups(probe);
    PassOut replay = run_pass(plan, online, probe);
    if (pass == 1 && args.corrupt_window >= 0 &&
        static_cast<std::size_t>(args.corrupt_window) < n_windows) {
      auto& p = replay.windows[static_cast<std::size_t>(args.corrupt_window)].rec.probability;
      p = std::nextafter(p, 2.0F);
    }
    std::int64_t bad = 0;
    for (std::size_t i = 0; i < n_windows; ++i) {
      const auto& w = replay.windows[i];
      if (!w.ok || !same_record(ref.windows[i].rec, w.rec)) {
        ++bad;
        continue;
      }
      (tracing ? traced : plain).record(i, w.seconds);
      if (tracing) {
        for (std::size_t s = 0; s < kSpans; ++s) spans[s].record(i, w.spans[s]);
      }
    }
    out.attempted += static_cast<std::int64_t>(n_windows);
    out.failed += bad;
    if (bad > 0) {
      out.fail(std::string(tracing ? "traced" : "untraced") + " replay " + std::to_string(pass) +
               ": " + std::to_string(bad) + " window(s) differ from the reference");
    }
    if (tracing) {
      ++log.traced_passes;
    } else {
      ++log.plain_passes;
      log.pass_seconds.push_back(replay.seconds());
    }
  }
  if (plain.values().size() != n_windows || (args.trace && traced.values().size() != n_windows)) {
    out.fail("some window never reproduced the reference, so it has no replay minimum");
  }

  // Simulated outcomes (identical in every reproducing replay).
  ConfusionMatrix detection;
  core::LocalizationScore attackers;
  for (const auto& w : ref.windows) {
    detection.add(w.rec.detected, w.rec.truth_attack);
    if (w.rec.truth_attack) attackers.add(w.rec.tlm_attackers, w.rec.truth_attackers);
    if (w.rec.detected) ++f.windows_detected;
  }
  const auto attacker_id = attackers.metrics();
  std::vector<double> detect_latency, mitigate_time;
  for (const auto& s : ref.summaries) {
    f.fence_events += static_cast<double>(s.fence_events);
    f.false_fence_events += static_cast<double>(s.false_fence_events);
    detect_latency.push_back(static_cast<double>(s.detection_latency()));
    mitigate_time.push_back(static_cast<double>(s.time_to_mitigate()));
  }

  f.windows = static_cast<double>(n_windows);
  f.plain_sum = plain.sum();
  f.window_ms_p50 = quantile(plain.values(), 0.5) * 1e3;
  f.detection_accuracy = detection.accuracy();
  f.detection_precision = detection.precision();
  f.localization_accuracy = attacker_id.accuracy;
  f.localization_precision = attacker_id.precision;
  log.p50_samples = plain.values().size();

  f.cycles = static_cast<double>(ref.cycles);
  f.noc_step_s = spans[kNoc].sum();
  f.flits_ejected = static_cast<double>(ref.flits_ejected);
  f.workload_tick_s = spans[kWorkload].sum();
  f.requests_issued = static_cast<double>(ref.requests_issued);
  f.replies_completed = static_cast<double>(ref.replies_completed);
  std::vector<std::int64_t> attacked = ref.hist_after;
  for (std::size_t i = 0; i < ref.hist_before.size(); ++i) attacked[i] -= ref.hist_before[i];
  const double p99_before =
      noc::histogram_percentile(ref.hist_before, 0.99, static_cast<double>(ref.max_before));
  const double p99_after =
      noc::histogram_percentile(attacked, 0.99, static_cast<double>(ref.max_after));
  f.reply_p99_degradation = p99_before > 0.0 ? p99_after / p99_before : 0.0;
  f.traffic_tick_s = spans[kTraffic].sum();
  f.scenario_s = spans[kScenario].sum();
  f.round_s = spans[kRound].sum();
  f.window_ms_p90 = quantile(plain.values(), 0.9) * 1e3;
  f.detection_latency_cycles = mean_of_nonnegative(detect_latency);
  f.time_to_mitigate_cycles = mean_of_nonnegative(mitigate_time);
  f.traced_sum = traced.sum();
  for (const auto& s : spans) f.span_sum += s.sum();
}

}  // namespace winbench
