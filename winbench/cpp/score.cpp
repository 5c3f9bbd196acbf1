// score-16x16-stp: offline batch-32 scoring (PipelineSession::process_batch)
// of the prepared held-out 16x16 STP windows — the paper's Tables 1-3
// path. No simulator runs in the timed part.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/evaluation.hpp"

namespace winbench {

using namespace dl2f;

namespace {

constexpr std::size_t kBatch = core::PipelineSession::kDefaultMaxBatch;

struct Online {
  std::unique_ptr<core::PipelineEngine> engine;  ///< outlives the session
  std::unique_ptr<core::PipelineSession> session;
  /// The held-out windows in this seed's order; batch b is
  /// windows[b*kBatch, (b+1)*kBatch).
  std::vector<monitor::FrameSample> windows;

  [[nodiscard]] std::size_t batches() const { return (windows.size() + kBatch - 1) / kBatch; }
  [[nodiscard]] monitor::WindowBatch batch(std::size_t b) const {
    const std::size_t begin = b * kBatch;
    return {windows.data() + begin, std::min(kBatch, windows.size() - begin)};
  }
};

/// The seed shuffles attack and benign windows separately and interleaves
/// them in a fixed proportion, so every batch holds the same attack share
/// (and so about the same localization work) whatever the seed.
std::vector<std::size_t> window_order(const monitor::Dataset& data, std::uint64_t seed) {
  std::vector<std::size_t> attack, benign;
  for (std::size_t i = 0; i < data.samples.size(); ++i) {
    (data.samples[i].under_attack ? attack : benign).push_back(i);
  }
  Rng rng(mix64(seed ^ fnv1a("score-16x16-stp")));
  std::shuffle(attack.begin(), attack.end(), rng.engine());
  std::shuffle(benign.begin(), benign.end(), rng.engine());
  std::vector<std::size_t> order;
  std::size_t a = 0, b = 0;
  const std::size_t n = data.samples.size();
  for (std::size_t k = 0; k < n; ++k) {
    // Take an attack window whenever the attack share so far falls behind.
    const bool take_attack =
        a < attack.size() && (b >= benign.size() || a * n < (k + 1) * attack.size());
    order.push_back(take_attack ? attack[a++] : benign[b++]);
  }
  return order;
}

Online bring_online(const RunArgs& args, SetupTimes& t) {
  Online online;
  const auto t0 = Clock::now();
  const runtime::ModelSnapshot snap = read_snapshot(args.cache / kSnapshot16);
  const monitor::Dataset data = read_dataset(args.cache / kHeldOut16);
  const auto t1 = Clock::now();
  online.engine = std::make_unique<core::PipelineEngine>(snap.make_engine());
  online.session = std::make_unique<core::PipelineSession>(*online.engine);
  const auto t2 = Clock::now();
  for (const std::size_t i : window_order(data, args.seed)) {
    online.windows.push_back(data.samples[i]);
  }
  const auto t3 = Clock::now();
  t.read = seconds_between(t0, t1);
  t.engine = seconds_between(t1, t2);
  t.plan = seconds_between(t2, t3);
  return online;
}

bool same_round(const core::RoundResult& a, const core::RoundResult& b) {
  return a.detected == b.detected && same_bits(a.probability, b.probability) &&
         same_bits(a.sequence_probability, b.sequence_probability) && a.victims == b.victims &&
         a.tlm.attackers == b.tlm.attackers;
}

struct BatchOut {
  std::vector<core::RoundResult> rounds;
  double seconds = 0.0;
  double detect_s = 0.0, localize_s = 0.0;  ///< traced only
};

BatchOut score_batch(Online& online, std::size_t b) {
  BatchOut out;
  const auto t0 = Clock::now();
  out.rounds = online.session->process_batch(online.batch(b));
  out.seconds = seconds_between(t0, Clock::now());
  return out;
}

/// The traced path splits process_batch into its two public halves:
/// detect_batch, then localize on each detected window.
BatchOut score_batch_traced(Online& online, std::size_t b) {
  BatchOut out;
  const auto batch = online.batch(b);
  const float threshold = online.engine->config().detector.threshold;
  const auto t0 = Clock::now();
  const std::vector<float> probs = online.session->detect_batch(batch);
  const auto t1 = Clock::now();
  out.rounds.resize(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (probs[i] > threshold) out.rounds[i] = online.session->localize(batch[i]);
    out.rounds[i].probability = probs[i];
    out.rounds[i].detected = probs[i] > threshold;
  }
  const auto t2 = Clock::now();
  out.detect_s = seconds_between(t0, t1);
  out.localize_s = seconds_between(t1, t2);
  out.seconds = seconds_between(t0, t2);
  return out;
}

}  // namespace

void run_score(const RunArgs& args, RunLog& log, Figures& f, Outcome& out) {
  const auto deadline = Clock::now() + std::chrono::duration<double>(args.seconds);
  // Three set-up passes before every pass; the last one's defense runs it.
  const auto online_after_setups = [&] {
    for (int i = 0; i < 2; ++i) {
      SetupTimes t;
      (void)bring_online(args, t);
      log.setups.add(t);
    }
    SetupTimes t;
    Online online = bring_online(args, t);
    log.setups.add(t);
    return online;
  };

  Online online = online_after_setups();
  const std::size_t n_batches = online.batches();
  const auto n_windows = static_cast<std::int64_t>(online.windows.size());
  log.plan = std::to_string(n_batches) + " batches of " + std::to_string(kBatch) +
             " held-out windows";

  // Reference pass.
  std::vector<std::vector<core::RoundResult>> ref(n_batches);
  for (std::size_t b = 0; b < n_batches; ++b) ref[b] = score_batch(online, b).rounds;
  out.attempted += n_windows;

  ReplayMinima plain, traced, detect, localize;
  for (std::int64_t pass = 1;; ++pass) {
    const bool enough = log.plain_passes >= 2 && (!args.trace || log.traced_passes >= 2);
    if (enough && Clock::now() >= deadline) break;
    log.ref_loop_us = std::min(log.ref_loop_us, time_reference_loop());
    Online replay = online_after_setups();
    const bool tracing = args.trace && pass % 2 == 1;
    std::int64_t bad = 0;
    double pass_s = 0.0;
    for (std::size_t b = 0; b < n_batches; ++b) {
      BatchOut got = tracing ? score_batch_traced(replay, b) : score_batch(replay, b);
      if (pass == 1 && args.corrupt_window >= 0 &&
          static_cast<std::size_t>(args.corrupt_window) / kBatch == b) {
        auto& p = got.rounds[static_cast<std::size_t>(args.corrupt_window) % kBatch].probability;
        p = std::nextafter(p, 2.0F);
      }
      std::int64_t batch_bad = 0;
      for (std::size_t i = 0; i < ref[b].size(); ++i) {
        if (i >= got.rounds.size() || !same_round(ref[b][i], got.rounds[i])) ++batch_bad;
      }
      bad += batch_bad;
      pass_s += got.seconds;
      if (batch_bad > 0) continue;
      (tracing ? traced : plain).record(b, got.seconds);
      if (tracing) {
        detect.record(b, got.detect_s);
        localize.record(b, got.localize_s);
      }
    }
    out.attempted += n_windows;
    out.failed += bad;
    if (bad > 0) {
      out.fail(std::string(tracing ? "traced" : "untraced") + " replay " + std::to_string(pass) +
               ": " + std::to_string(bad) + " window(s) differ from the reference");
    }
    if (tracing) {
      ++log.traced_passes;
    } else {
      ++log.plain_passes;
      log.pass_seconds.push_back(pass_s);
    }
  }
  if (plain.values().size() != n_batches || (args.trace && traced.values().size() != n_batches)) {
    out.fail("some batch never reproduced the reference, so it has no replay minimum");
  }

  // Self-check (untimed): process_batch equals detect_batch plus localize
  // on each detected window.
  for (std::size_t b = 0; b < n_batches; ++b) {
    const auto split = score_batch_traced(online, b).rounds;
    if (!std::equal(ref[b].begin(), ref[b].end(), split.begin(), split.end(), same_round)) {
      out.fail("process_batch differs from detect_batch + localize in batch " +
               std::to_string(b));
    }
  }

  // Per-window host time: its batch call's replay minimum / batch size.
  std::vector<double> per_window;
  for (std::size_t b = 0; b < plain.values().size(); ++b) {
    const auto size = online.batch(b).size();
    per_window.insert(per_window.end(), size, plain.values()[b] / static_cast<double>(size));
  }

  const monitor::Dataset heldout{MeshShape::square(16), online.windows};
  const core::BenchmarkScore score = core::score_benchmark(*online.engine, "stp", heldout);
  for (const auto& batch : ref) {
    for (const auto& r : batch) f.windows_detected += r.detected ? 1.0 : 0.0;
  }

  f.windows = static_cast<double>(n_windows);
  f.plain_sum = plain.sum();
  f.window_ms_p50 = quantile(per_window, 0.5) * 1e3;
  f.detection_accuracy = score.detection.accuracy;
  f.detection_precision = score.detection.precision;
  f.localization_accuracy = score.localization.accuracy;
  f.localization_precision = score.localization.precision;
  log.p50_samples = per_window.size();

  f.window_ms_p90 = quantile(per_window, 0.9) * 1e3;
  f.detect_s = detect.sum();
  f.localize_s = localize.sum();
  f.traced_sum = traced.sum();
  f.span_sum = f.detect_s + f.localize_s;
}

}  // namespace winbench
