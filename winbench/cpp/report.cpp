// Estimators, host probes and the result printer.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>

#include "bench.hpp"

namespace winbench {

void ReplayMinima::record(std::size_t item, double seconds) {
  if (item >= min_.size()) min_.resize(item + 1, std::numeric_limits<double>::infinity());
  min_[item] = std::min(min_[item], seconds);
}

double ReplayMinima::sum() const noexcept {
  double s = 0.0;
  for (const double v : min_) s += v;
  return s;
}

double SetupLog::median(double (*part)(const SetupTimes&)) const {
  std::vector<double> v;
  for (const auto& t : passes_) v.push_back(part(t));
  return quantile(std::move(v), 0.5);
}

double SetupLog::min_total() const {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& t : passes_) best = std::min(best, t.total());
  return best;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double time_reference_loop() {
  // A fixed integer recurrence the compiler cannot fold: its time tracks
  // only how fast this host runs one core right now.
  constexpr int kRepeats = 5;
  constexpr std::uint64_t kSteps = 1U << 18;
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < kRepeats; ++r) {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(r);
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kSteps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      x *= 0xff51afd7ed558ccdULL;
    }
    const double t = seconds_between(t0, Clock::now());
    asm volatile("" : : "r"(x));
    best = std::min(best, t);
  }
  return best * 1e6;
}

std::string join_ms(const std::vector<double>& seconds) {
  std::ostringstream os;
  for (std::size_t i = 0; i < seconds.size(); ++i) {
    os << (i ? "," : "") << std::llround(seconds[i] * 1e3);
  }
  return os.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

std::vector<Metric> end_to_end(const RunLog& log, const Figures& f) {
  return {
      {"windows_per_s", f.windows / f.plain_sum, "windows/s"},
      {"window_ms_p50", f.window_ms_p50, "ms"},
      {"setup_s", log.setups.median([](const SetupTimes& t) { return t.total(); }), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
      {"detection_accuracy", f.detection_accuracy, "ratio"},
      {"detection_precision", f.detection_precision, "ratio"},
      {"localization_accuracy", f.localization_accuracy, "ratio"},
      {"localization_precision", f.localization_precision, "ratio"},
  };
}

double ratio_or_zero(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double pass_spread(const std::vector<double>& passes) {
  if (passes.empty()) return 0.0;
  const auto [lo, hi] = std::minmax_element(passes.begin(), passes.end());
  return (*hi - *lo) / *lo;
}

std::vector<Metric> per_layer(const RunLog& log, const Figures& f) {
  return {
      {"noc.step_s", f.noc_step_s, "s"},
      {"noc.ns_per_cycle", ratio_or_zero(f.noc_step_s * 1e9, f.cycles), "ns"},
      {"noc.flits_ejected", f.flits_ejected, "count"},
      {"noc.ns_per_flit", ratio_or_zero(f.noc_step_s * 1e9, f.flits_ejected), "ns"},
      {"workload.tick_s", f.workload_tick_s, "s"},
      {"workload.requests_issued", f.requests_issued, "count"},
      {"workload.replies_completed", f.replies_completed, "count"},
      {"workload.reply_p99_degradation", f.reply_p99_degradation, "ratio"},
      {"traffic.tick_s", f.traffic_tick_s, "s"},
      {"traffic.ns_per_cycle", ratio_or_zero(f.traffic_tick_s * 1e9, f.cycles), "ns"},
      {"runtime.scenario_s", f.scenario_s, "s"},
      {"runtime.round_s", f.round_s, "s"},
      {"runtime.window_ms_p90", f.window_ms_p90, "ms"},
      {"runtime.fence_events", f.fence_events, "count"},
      {"runtime.false_fence_events", f.false_fence_events, "count"},
      {"runtime.false_fence_rate", f.false_fence_events / f.windows, "1/window"},
      {"runtime.detection_latency_cycles", f.detection_latency_cycles, "cycles"},
      {"runtime.time_to_mitigate_cycles", f.time_to_mitigate_cycles, "cycles"},
      {"core.detect_s", f.detect_s, "s"},
      {"core.localize_s", f.localize_s, "s"},
      {"core.windows_detected", f.windows_detected, "count"},
      {"core.detected_share", f.windows_detected / f.windows, "ratio"},
      {"setup.read_s", log.setups.median([](const SetupTimes& t) { return t.read; }), "s"},
      {"setup.engine_s", log.setups.median([](const SetupTimes& t) { return t.engine; }), "s"},
      {"setup.plan_s", log.setups.median([](const SetupTimes& t) { return t.plan; }), "s"},
      {"host.ref_loop_us", log.ref_loop_us, "us"},
      {"host.pass_spread", pass_spread(log.pass_seconds), "ratio"},
      {"trace.wall_s", f.traced_sum, "s"},
      {"trace.coverage", ratio_or_zero(f.span_sum, f.traced_sum), "ratio"},
      {"trace.overhead", ratio_or_zero(f.traced_sum, f.plain_sum) - 1.0, "ratio"},
  };
}

}  // namespace

void print_outcome(const RunArgs& args, const RunLog& log, const Figures& f, Outcome& out) {
  const std::vector<Metric> metrics = args.trace ? per_layer(log, f) : end_to_end(log, f);
  for (const auto& m : metrics) {
    if (!std::isfinite(m.value)) out.fail(std::string("metric ") + m.name + " is not finite");
  }

  out.describe.emplace_back("replays", std::to_string(log.plain_passes) + " untraced + " +
                                           std::to_string(log.traced_passes) + " traced");
  out.describe.emplace_back("plan", log.plan);
  out.describe.emplace_back("plan_windows", std::to_string(static_cast<std::int64_t>(f.windows)));
  out.describe.emplace_back("p50_samples", std::to_string(log.p50_samples));
  out.describe.emplace_back("host.ref_loop_us", std::to_string(log.ref_loop_us));
  out.describe.emplace_back("host.pass_spread", std::to_string(pass_spread(log.pass_seconds)));
  out.describe.emplace_back("host.pass_ms", join_ms(log.pass_seconds));
  out.describe.emplace_back("setup_passes", std::to_string(log.setups.size()));
  out.describe.emplace_back("setup_min_s", std::to_string(log.setups.min_total()));

  std::ostringstream describe;
  describe << "describe {";
  for (std::size_t i = 0; i < out.describe.size(); ++i) {
    describe << (i ? ", " : "") << '"' << json_escape(out.describe[i].first) << "\": \""
             << json_escape(out.describe[i].second) << '"';
  }
  describe << "}";
  std::cout << describe.str() << "\n";
  for (const auto& p : out.problems) std::cout << "problem: " << p << "\n";

  std::ostringstream json;
  json << std::setprecision(17);
  json << "{\"correct\": " << (out.correct ? "true" : "false")
       << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    json << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": " << v
         << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

}  // namespace winbench
