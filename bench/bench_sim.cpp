// Cycle-accurate simulator throughput: the NoC hot-path flattening measured.
//
// Steps a live Simulation (benign UniformRandom traffic, and the same with
// a two-attacker FDoS flood overlaid) and reports simulated cycles per
// wall-clock second for mesh sizes 4/8/16/32. The 8x8 benign figure is the
// ISSUE-3 acceptance gate: the flat-storage/ring-buffer/worklist datapath
// must reach >= 3x the pre-refactor simulator.
//
// The pre-refactor reference (unique_ptr routers, deque VCs, per-cycle
// scratch allocations, every router visited every cycle) was measured with
// this very bench before the refactor landed; its 8x8-benign number is
// baked in below so the emitted speedup tracks the same machine class as
// CI. Absolute cycles/sec are machine-dependent; the ratio is the contract.
//
// The shard sweep re-runs the 32x32 benign and attack scenarios
// at each row-band shard count (default 1,2,4,8; override with
// --shards=a,b,c) and verifies that every aggregate the golden tests pin —
// ejection counts, bit-for-bit floating-point latency sums, histogram and
// telemetry hashes — is identical across shard counts. Any divergence
// exits non-zero: this is the same byte-identity gate style bench_campaign
// applies to worker widths, here guarding the sharded stepping engine. The
// benign sweep's sharded-vs-1-shard ratio is what exposes cache-line
// contention between step threads: at benign load every shard is busy, so
// shared lines between shards cost more than the extra cores win.
//
// Output: human-readable table on stdout plus machine-readable
// BENCH_sim.json in the working directory. Pass --quick for the CI preset.
#include <bit>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/table.hpp"
#include "traffic/fdos.hpp"
#include "traffic/simulation.hpp"

using namespace dl2f;

namespace {

// Pre-refactor 8x8 benign-load throughput (cycles/sec) measured with this
// bench at the seed of ISSUE 3 on the reference builder (Release, -O2).
// Updated only when the bench workload itself changes.
constexpr double kPreRefactorBenign8x8Cps = 28194.0;

struct LoadCase {
  std::string name;
  bool attack = false;
};

struct Result {
  std::int32_t mesh = 0;
  std::string load;
  std::int32_t shards = 0;        ///< resolved row-band shard count
  std::int32_t step_threads = 0;  ///< resolved stepping thread count
  double cycles_per_sec = 0.0;
  double us_per_cycle = 0.0;
  std::int64_t flits_in_network = 0;  ///< live flits after the measured span
  double ns_per_flit_cycle = 0.0;     ///< wall time per (live flit x cycle)
};

traffic::Simulation make_sim(std::int32_t side, bool attack, std::int32_t shards = 0) {
  noc::MeshConfig cfg;
  cfg.shape = MeshShape::square(side);
  cfg.packet_length_flits = 5;
  cfg.shards = shards;
  traffic::Simulation sim(cfg);
  // Moderate benign load: 0.02 packets/node/cycle of 5-flit packets keeps
  // every mesh size below saturation so the bench measures stepping cost,
  // not queue divergence.
  sim.emplace_generator<traffic::SyntheticTraffic>(traffic::SyntheticPattern::UniformRandom,
                                                   /*injection_rate=*/0.02, /*seed=*/17);
  if (attack) {
    traffic::AttackScenario s;
    const std::int32_t n = cfg.shape.node_count();
    s.attackers = {0, static_cast<NodeId>(side - 1)};   // two corners
    s.victim = static_cast<NodeId>(n / 2 + side / 2);   // center-ish
    s.fir = 0.9;
    sim.emplace_generator<traffic::FloodingAttack>(s, /*seed=*/23);
  }
  return sim;
}

/// Best-of-`repeats` wall time for `cycles` simulated cycles, as cycles/sec.
/// The simulation keeps advancing across repeats, so every span measures
/// warmed-up steady-state stepping.
double measure(traffic::Simulation& sim, std::int64_t cycles, std::int32_t repeats) {
  double best_seconds = std::numeric_limits<double>::infinity();
  for (std::int32_t r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    sim.run(cycles);
    const auto t1 = std::chrono::steady_clock::now();
    best_seconds = std::min(best_seconds, std::chrono::duration<double>(t1 - t0).count());
  }
  return static_cast<double>(cycles) / best_seconds;
}

// --- Shard-identity sweep -------------------------------------------------

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// Every externally observable aggregate of a finished run, with the
/// order-sensitive floating-point sums captured as raw bit patterns —
/// equality means the sharded sweep reproduced the exact per-cycle event
/// order of the reference, not merely the same totals.
struct ShardDigest {
  std::int64_t flits_ejected = 0;
  std::int64_t packets_ejected = 0;
  std::int64_t benign_flits = 0;
  std::int64_t benign_packets = 0;
  std::int64_t flits_in_network = 0;
  std::int64_t max_queue_len = 0;
  std::uint64_t avg_packet_bits = 0;
  std::uint64_t packet_latency_sum_bits = 0;
  std::uint64_t benign_packet_latency_sum_bits = 0;
  std::uint64_t hist_hash = 0;
  std::uint64_t telem_hash = 0;

  bool operator==(const ShardDigest&) const = default;
};

ShardDigest digest_of(const noc::Mesh& mesh) {
  ShardDigest d;
  const noc::LatencyStats& s = mesh.stats();
  d.flits_ejected = s.flits_ejected();
  d.packets_ejected = s.packets_ejected();
  d.benign_flits = mesh.benign_stats().flits_ejected();
  d.benign_packets = mesh.benign_stats().packets_ejected();
  d.flits_in_network = mesh.flits_in_network();
  d.max_queue_len = static_cast<std::int64_t>(mesh.max_source_queue_length());
  d.avg_packet_bits = std::bit_cast<std::uint64_t>(s.avg_packet_latency());
  d.packet_latency_sum_bits = std::bit_cast<std::uint64_t>(s.packet_latency_sum());
  d.benign_packet_latency_sum_bits =
      std::bit_cast<std::uint64_t>(mesh.benign_stats().packet_latency_sum());
  const auto& hist = s.packet_latency_histogram();
  d.hist_hash = fnv1a(1469598103934665603ULL, hist.data(), hist.size() * sizeof(hist[0]));
  std::uint64_t th = 1469598103934665603ULL;
  for (NodeId id = 0; id < mesh.shape().node_count(); ++id) {
    for (std::size_t p = 0; p < kNumPorts; ++p) {
      const auto& t = mesh.router(id).input(static_cast<Direction>(p)).telemetry;
      th = fnv1a(th, &t.buffer_writes, sizeof(t.buffer_writes));
      th = fnv1a(th, &t.buffer_reads, sizeof(t.buffer_reads));
    }
  }
  d.telem_hash = th;
  return d;
}

struct ShardSweep {
  std::vector<std::pair<std::int32_t, double>> cps;  ///< (requested shards, cycles/s)
  bool identical = true;
  double speedup = 1.0;  ///< best sharded cycles/s over the 1-shard cycles/s
};

/// Fresh 32x32 simulations of one load, identical total cycles at every
/// shard count, digests compared against the list's first entry.
ShardSweep shard_sweep(const LoadCase& load, const std::vector<std::int32_t>& shard_list,
                       std::int64_t warmup, std::int64_t cycles, std::int32_t repeats) {
  std::cout << "\nshard sweep (32x32 " << load.name << ", row-band shards):\n";
  TextTable table({"Shards", "Threads", "Cycles/s", "us/cycle", "Identical"});
  ShardSweep sweep;
  ShardDigest reference;
  for (std::size_t i = 0; i < shard_list.size(); ++i) {
    const std::int32_t k = shard_list[i];
    traffic::Simulation sim = make_sim(32, load.attack, k);
    sim.run(warmup);
    const double cps = measure(sim, cycles, repeats);
    const ShardDigest d = digest_of(sim.mesh());
    if (i == 0) reference = d;
    const bool match = d == reference;
    sweep.identical = sweep.identical && match;
    sweep.cps.emplace_back(k, cps);
    table.add_row({std::to_string(sim.mesh().shard_count()),
                   std::to_string(sim.mesh().step_thread_count()), TextTable::cell(cps, 0),
                   TextTable::cell(1e6 / cps, 3), match ? "yes" : "NO"});
  }
  std::cout << table;
  double cps_1shard = 0.0;
  double cps_sharded_best = 0.0;
  for (const auto& [k, cps] : sweep.cps) {
    if (k == 1) cps_1shard = cps;
    if (k != 1) cps_sharded_best = std::max(cps_sharded_best, cps);
  }
  if (cps_1shard > 0.0 && cps_sharded_best > 0.0) sweep.speedup = cps_sharded_best / cps_1shard;
  std::cout << "sharded-vs-1shard speedup (32x32 " << load.name << "): " << sweep.speedup
            << "x\n";
  if (!sweep.identical) {
    std::cout << "FAIL: sharded stepping diverged from the " << shard_list.front()
              << "-shard reference (see Identical column)\n";
  }
  return sweep;
}

void write_shard_cps(std::ostream& json, const ShardSweep& sweep) {
  json << "{";
  for (std::size_t i = 0; i < sweep.cps.size(); ++i) {
    json << (i == 0 ? "" : ", ") << "\"" << sweep.cps[i].first << "\": " << sweep.cps[i].second;
  }
  json << "}";
}

/// Parse "--shards=1,2,4,8" into a shard-count list.
std::vector<std::int32_t> parse_shard_list(std::string_view arg) {
  std::vector<std::int32_t> out;
  std::string token;
  std::istringstream in{std::string(arg)};
  while (std::getline(in, token, ',')) {
    if (!token.empty()) out.push_back(std::stoi(token));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::vector<std::int32_t> shard_list{1, 2, 4, 8};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--quick") quick = true;
    if (arg.rfind("--shards=", 0) == 0) shard_list = parse_shard_list(arg.substr(9));
  }
  // The sweep's reference is its first entry; when the caller asks for a
  // single sharded count (e.g. the TSan job's --shards=4), compare it
  // against the serial engine rather than against itself.
  if (shard_list.size() == 1 && shard_list[0] != 1) {
    shard_list.insert(shard_list.begin(), 1);
  }

  const std::vector<std::int32_t> sizes{4, 8, 16, 32};
  const std::vector<LoadCase> loads{{"benign", false}, {"attack", true}};
  const std::int64_t warmup = quick ? 200 : 500;
  const std::int64_t cycles = quick ? 500 : 2000;
  const std::int32_t repeats = quick ? 2 : 4;

  std::cout << "bench_sim: " << cycles << " measured cycles, best of " << repeats << " repeats"
            << (quick ? " (quick)" : "") << "\n\n";

  std::vector<Result> results;
  double benign_8x8 = 0.0;
  TextTable table(
      {"Mesh", "Load", "Shards", "Threads", "Cycles/s", "us/cycle", "Flits", "ns/flit-cyc"});
  for (const std::int32_t side : sizes) {
    for (const LoadCase& load : loads) {
      traffic::Simulation sim = make_sim(side, load.attack);
      sim.run(warmup);
      const double cps = measure(sim, cycles, repeats);
      Result res;
      res.mesh = side;
      res.load = load.name;
      res.shards = sim.mesh().shard_count();
      res.step_threads = sim.mesh().step_thread_count();
      res.cycles_per_sec = cps;
      res.us_per_cycle = 1e6 / cps;
      // Per-cycle cost scales with the flits in flight, not the router
      // count: at a fixed per-node injection rate both the average route
      // length and the per-link utilization grow with the mesh side, so
      // live flits — and with them us/cycle — grow superlinearly in the
      // node count. ns per (flit x cycle) staying ~constant across sizes
      // is the evidence that stepping itself has no superlinear scan.
      res.flits_in_network = sim.mesh().flits_in_network();
      if (res.flits_in_network > 0) {
        res.ns_per_flit_cycle =
            res.us_per_cycle * 1e3 / static_cast<double>(res.flits_in_network);
      }
      results.push_back(res);
      if (side == 8 && !load.attack) benign_8x8 = cps;
      table.add_row({std::to_string(side) + "x" + std::to_string(side), load.name,
                     std::to_string(res.shards), std::to_string(res.step_threads),
                     TextTable::cell(cps, 0), TextTable::cell(res.us_per_cycle, 3),
                     std::to_string(res.flits_in_network),
                     TextTable::cell(res.ns_per_flit_cycle, 1)});
      // Keep the simulated state observable so the loop cannot be elided.
      if (sim.mesh().now() < 0) return 2;
    }
  }

  const bool have_baseline = kPreRefactorBenign8x8Cps > 0.0;
  const double speedup = have_baseline ? benign_8x8 / kPreRefactorBenign8x8Cps : 0.0;

  std::cout << table << '\n';
  if (have_baseline) {
    std::cout << "8x8 benign: " << benign_8x8 << " cycles/s vs pre-refactor "
              << kPreRefactorBenign8x8Cps << " -> " << speedup << "x\n";
  }

  // Shard sweeps: benign first, then attack.
  const ShardSweep benign_sweep = shard_sweep(loads[0], shard_list, warmup, cycles, repeats);
  const ShardSweep attack_sweep = shard_sweep(loads[1], shard_list, warmup, cycles, repeats);
  const bool identical = benign_sweep.identical && attack_sweep.identical;

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"sim\",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency() << ",\n"
       << "  \"warmup_cycles\": " << warmup << ",\n"
       << "  \"measured_cycles\": " << cycles << ",\n"
       << "  \"repeats\": " << repeats;
  // One {"<mesh>_<load>": value} object per per-row field.
  const auto per_row = [&](const char* key, auto field) {
    json << ",\n  \"" << key << "\": {";
    for (std::size_t i = 0; i < results.size(); ++i) {
      json << (i == 0 ? "" : ", ") << "\"" << results[i].mesh << "_" << results[i].load
           << "\": " << results[i].*field;
    }
    json << "}";
  };
  per_row("cycles_per_sec", &Result::cycles_per_sec);
  per_row("flits_in_network", &Result::flits_in_network);
  per_row("ns_per_flit_cycle", &Result::ns_per_flit_cycle);
  per_row("shards", &Result::shards);
  per_row("step_threads", &Result::step_threads);
  json << ",\n  \"cycles_per_sec_shards\": ";
  write_shard_cps(json, attack_sweep);
  json << ",\n  \"cycles_per_sec_shards_benign\": ";
  write_shard_cps(json, benign_sweep);
  json << ",\n"
       << "  \"shards_bitwise_identical\": " << (identical ? "true" : "false") << ",\n"
       << "  \"speedup_32_sharded_vs_1shard\": " << attack_sweep.speedup << ",\n"
       << "  \"speedup_32_benign_sharded_vs_1shard\": " << benign_sweep.speedup << ",\n"
       << "  \"pre_refactor_benign_8x8_cps\": " << kPreRefactorBenign8x8Cps << ",\n"
       << "  \"speedup_benign_8x8_vs_pre_refactor\": " << speedup << "\n"
       << "}\n";

  std::ofstream out("BENCH_sim.json");
  out << json.str();
  std::cout << "wrote BENCH_sim.json (8x8 benign " << benign_8x8 << " cycles/s)\n";
  // The shard sweep is a hard determinism gate: any divergence from the
  // reference shard count fails the bench (and with it the CI job).
  return identical ? 0 : 1;
}
