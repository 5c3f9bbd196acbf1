// Shared pieces of the defended-window benchmark program: the prepared-file
// formats, the replay-minimum estimator and the result record every
// workload fills in.
#pragma once

#include <bit>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "monitor/dataset.hpp"
#include "runtime/campaign.hpp"

namespace winbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------ run settings

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path cache;
  std::string cache_key;
  std::string git_sha = "unknown";
  /// Test hook: alter the record of this window in the first replay so the
  /// self-check must catch it (-1 = off).
  std::int64_t corrupt_window = -1;
};

// ----------------------------------------------------------- prepared files

/// File names inside the cache directory.
inline constexpr const char* kSnapshot8 = "snapshot_8x8.bin";
inline constexpr const char* kSnapshot16 = "snapshot_16x16.bin";
inline constexpr const char* kHeldOut16 = "heldout_16x16.bin";
inline constexpr const char* kManifest = "manifest.txt";

/// Canonical text of every preparation parameter; part of the cache key.
[[nodiscard]] std::string recipe_text();

/// Train both snapshots and simulate the held-out set into `dir`.
void prepare(const std::filesystem::path& dir, const std::string& key, std::int32_t threads);

/// Manifest entries (key = value lines); throws when the file is missing
/// or its key differs from `expected_key`.
[[nodiscard]] std::vector<std::pair<std::string, std::string>> read_manifest(
    const std::filesystem::path& dir, const std::string& expected_key);

void write_snapshot(const std::filesystem::path& file, const dl2f::runtime::ModelSnapshot& snap);
[[nodiscard]] dl2f::runtime::ModelSnapshot read_snapshot(const std::filesystem::path& file);

void write_dataset(const std::filesystem::path& file, const dl2f::monitor::Dataset& data);
[[nodiscard]] dl2f::monitor::Dataset read_dataset(const std::filesystem::path& file);

// ------------------------------------------------------------- estimators

/// Per-item replay minima: item i's host time is the minimum over every
/// replay that timed it. Host noise only ever adds time.
class ReplayMinima {
 public:
  void record(std::size_t item, double seconds);
  [[nodiscard]] const std::vector<double>& values() const noexcept { return min_; }
  [[nodiscard]] double sum() const noexcept;

 private:
  std::vector<double> min_;
};

/// One set-up pass: bringing the trained defense online from the prepared
/// files (read them, build the engine, build the plan's objects).
struct SetupTimes {
  double read = 0.0, engine = 0.0, plan = 0.0;
  [[nodiscard]] double total() const { return read + engine + plan; }
};

/// Every set-up pass of a run; reported as medians over the passes.
class SetupLog {
 public:
  void add(const SetupTimes& t) { passes_.push_back(t); }
  [[nodiscard]] std::size_t size() const noexcept { return passes_.size(); }
  [[nodiscard]] double median(double (*part)(const SetupTimes&)) const;
  [[nodiscard]] double min_total() const;

 private:
  std::vector<SetupTimes> passes_;
};

/// Nearest-rank quantile of an unsorted sample (0 on empty input).
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// Minimum time of the fixed ALU reference loop, in microseconds.
[[nodiscard]] double time_reference_loop();

/// Seconds as a comma-separated list of whole milliseconds.
[[nodiscard]] std::string join_ms(const std::vector<double>& seconds);

/// Max resident set size of this process in MiB.
[[nodiscard]] double peak_rss_mb();

// ------------------------------------------------------------------ output

/// Bookkeeping every workload's replay loop keeps.
struct RunLog {
  SetupLog setups;
  std::vector<double> pass_seconds;  ///< raw untraced replay passes
  double ref_loop_us = 1e300;        ///< minimum of the reference loop
  std::int64_t plain_passes = 0;
  std::int64_t traced_passes = 0;
  std::string plan;  ///< one-line plan description
  std::size_t p50_samples = 0;
};

/// Every reported figure. A layer the workload never calls keeps its
/// default: 0, or -1 for a cycle latency that never happened.
struct Figures {
  // end to end (untraced)
  double windows = 0.0;    ///< plan windows
  double plain_sum = 0.0;  ///< sum of untraced replay minima, s
  double window_ms_p50 = 0.0;
  double detection_accuracy = 0.0, detection_precision = 0.0;
  double localization_accuracy = 0.0, localization_precision = 0.0;
  // per layer
  double cycles = 0.0;  ///< simulated cycles in the plan
  double noc_step_s = 0.0, flits_ejected = 0.0;
  double workload_tick_s = 0.0, requests_issued = 0.0, replies_completed = 0.0;
  double reply_p99_degradation = 0.0;
  double traffic_tick_s = 0.0;
  double scenario_s = 0.0, round_s = 0.0, window_ms_p90 = 0.0;
  double fence_events = 0.0, false_fence_events = 0.0;
  double detection_latency_cycles = -1.0, time_to_mitigate_cycles = -1.0;
  double detect_s = 0.0, localize_s = 0.0, windows_detected = 0.0;
  double traced_sum = 0.0;  ///< sum of traced replay minima, s
  double span_sum = 0.0;    ///< sum of every span's replay minima, s
};

struct Outcome {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Self-describing context, printed as one `describe` line.
  std::vector<std::pair<std::string, std::string>> describe;
  /// Human-readable reasons the run is not correct.
  std::vector<std::string> problems;

  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

/// Workload entry points; each fills `log`, `figures` and `out`.
void run_defend(const RunArgs& args, RunLog& log, Figures& figures, Outcome& out);
void run_score(const RunArgs& args, RunLog& log, Figures& figures, Outcome& out);

/// Print the describe line and, last, the JSON result line: the
/// end-to-end metrics, or with --trace 1 the per-layer ones.
void print_outcome(const RunArgs& args, const RunLog& log, const Figures& f, Outcome& out);

/// Bit-exact float equality (replays must reproduce the reference).
[[nodiscard]] inline bool same_bits(float a, float b) {
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

}  // namespace winbench
