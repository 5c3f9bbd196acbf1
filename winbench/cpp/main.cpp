// Defended-window benchmark program.
//
//   winbench recipe
//       Print the preparation recipe (part of the prepared-input cache key).
//   winbench prepare --cache DIR --key KEY --threads N
//       Train both model snapshots and simulate the held-out score set.
//   winbench run --workload W --seed S --seconds T --trace 0|1
//                       --cache DIR --key KEY [--git-sha SHA]
//       Time one workload from the prepared inputs; prints a describe line
//       and, last, one JSON result line.
//
// Everything timed runs on this one thread.
#include <sched.h>

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>

#include "bench.hpp"
#include "common/cpuid.hpp"

namespace {

using namespace winbench;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "winbench: " << why << "\n";
  std::exit(2);
}

int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage("expected a subcommand: recipe | prepare | run");
  const std::string_view cmd(argv[1]);
  RunArgs args;
  std::int32_t threads = 1;
  bool trace_given = false;
  for (int i = 2; i < argc; ++i) {
    const std::string_view flag(argv[i]);
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const std::string value(argv[++i]);
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
        trace_given = true;
      } else if (flag == "--cache") {
        args.cache = value;
      } else if (flag == "--key") {
        args.cache_key = value;
      } else if (flag == "--git-sha") {
        args.git_sha = value;
      } else if (flag == "--threads") {
        threads = std::stoi(value);
      } else if (flag == "--corrupt-window") {
        args.corrupt_window = std::stoll(value);
      } else {
        usage("unknown flag " + std::string(flag));
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + std::string(flag) + ": " + value);
    }
  }

  try {
    if (cmd == "recipe") {
      std::cout << recipe_text();
      return 0;
    }
    if (cmd == "prepare") {
      if (args.cache.empty() || args.cache_key.empty()) usage("prepare needs --cache and --key");
      prepare(args.cache, args.cache_key, std::max(1, threads));
      return 0;
    }
    if (cmd != "run") usage("unknown subcommand " + std::string(cmd));
    if (args.cache.empty() || args.cache_key.empty() || !trace_given || !(args.seconds > 0.0)) {
      usage("run needs --workload, --seed, --seconds > 0, --trace 0|1, --cache and --key");
    }

    Outcome out;
    out.describe = {
        {"git_sha", args.git_sha},
        {"workload", args.workload},
        {"seed", std::to_string(args.seed)},
        {"trace", args.trace ? "1" : "0"},
        {"build_type", WINBENCH_BUILD_TYPE},
        {"gemm_backend", dl2f::common::simd_level_name(dl2f::common::active_simd_level())},
        {"hardware_concurrency", std::to_string(std::thread::hardware_concurrency())},
        {"affinity_cpus", std::to_string(affinity_cpus())},
    };
    for (auto& [k, v] : read_manifest(args.cache, args.cache_key)) {
      if (k != "key") out.describe.emplace_back("prepare." + k, v);
    }

    RunLog log;
    Figures figures;
    if (args.workload == "score-16x16-stp") {
      run_score(args, log, figures, out);
    } else {
      run_defend(args, log, figures, out);
    }
    print_outcome(args, log, figures, out);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "winbench: " << e.what() << "\n";
    return 1;
  }
}
