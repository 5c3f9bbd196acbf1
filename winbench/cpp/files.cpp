// Preparation (training + held-out simulation) and the prepared-file
// formats. Everything here runs in the preparation process; the timed
// process only calls the readers.
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "monitor/benchmark.hpp"
#include "workload/families.hpp"

namespace winbench {

namespace fs = std::filesystem;
using namespace dl2f;

namespace {

// --------------------------------------------------------------- recipe

constexpr std::uint32_t kFormatVersion = 1;
/// Held-out set seed: distinct from every training seed below.
constexpr std::uint64_t kHeldOutSeed = 0x48E1D07ULL;
constexpr std::int32_t kHeldOutScenarios = 8;  ///< per STP pattern, half 1- and half 2-attacker
constexpr std::int32_t kHeldOutSamples = 4;    ///< benign and attack windows per run

/// 8x8: the serving recipe (bench_serving's full preset), temporal head on.
runtime::TrainPreset preset_8x8(std::int32_t threads) {
  runtime::TrainPreset p;
  p.temporal = true;
  p.temporal_benigns = monitor::all_benchmarks();
  for (const auto& w : monitor::trace_benchmarks()) p.temporal_benigns.push_back(w);
  p.localizer_epochs = 40;
  p.threads = threads;
  return p;
}

std::vector<monitor::Benchmark> train_mix_8x8() {
  return {monitor::Benchmark{traffic::SyntheticPattern::UniformRandom},
          monitor::Benchmark{traffic::SyntheticPattern::Tornado},
          monitor::Benchmark{traffic::ParsecWorkload::Blackscholes},
          monitor::Benchmark{workload::TraceWorkloadKind::TraceReplay}};
}

/// 16x16: the paper's VCO+BOC single-window configuration on the STP mix.
runtime::TrainPreset preset_16x16(std::int32_t threads) {
  runtime::TrainPreset p;
  p.scenarios = 12;
  p.detector_epochs = 50;
  p.localizer_epochs = 40;
  p.threads = threads;
  return p;
}

monitor::DatasetConfig heldout_config() {
  monitor::DatasetConfig cfg;
  cfg.mesh = MeshShape::square(16);
  cfg.scenarios_per_benchmark = kHeldOutScenarios;
  cfg.benign_samples_per_run = kHeldOutSamples;
  cfg.attack_samples_per_run = kHeldOutSamples;
  cfg.seed = kHeldOutSeed;
  return cfg;
}

std::string describe_preset(const runtime::TrainPreset& p) {
  std::ostringstream os;
  os << "scenarios=" << p.scenarios << " benign=" << p.benign_samples
     << " attack=" << p.attack_samples << " det_epochs=" << p.detector_epochs
     << " loc_epochs=" << p.localizer_epochs << " seed=" << p.seed << " temporal=" << p.temporal
     << " seq=" << p.sequence_length << " tmp_epochs=" << p.temporal_epochs
     << " tmp_windows=" << p.temporal_windows_per_run
     << " tmp_runs=" << p.temporal_runs_per_cell << " tmp_benigns=";
  for (const auto& b : p.temporal_benigns) os << b.name() << ",";
  return os.str();
}

// ------------------------------------------------------------ binary io

class Writer {
 public:
  explicit Writer(const fs::path& file) : out_(file, std::ios::binary | std::ios::trunc) {
    if (!out_) throw std::runtime_error("cannot write " + file.string());
  }
  template <typename T>
  void pod(const T& v) {
    out_.write(reinterpret_cast<const char*>(&v), sizeof(T));
  }
  void bytes(const std::string& s) {
    pod<std::uint64_t>(s.size());
    out_.write(s.data(), static_cast<std::streamsize>(s.size()));
  }
  template <typename T>
  void vec(const std::vector<T>& v) {
    pod<std::uint64_t>(v.size());
    out_.write(reinterpret_cast<const char*>(v.data()),
               static_cast<std::streamsize>(v.size() * sizeof(T)));
  }
  void frame(const Frame& f) {
    pod(f.rows());
    pod(f.cols());
    vec(f.data());
  }
  void frames(const monitor::DirectionalFrames& d) {
    for (const auto& f : d) frame(f);
  }
  void close() {
    out_.close();
    if (!out_) throw std::runtime_error("write failed");
  }

 private:
  std::ofstream out_;
};

class Reader {
 public:
  explicit Reader(const fs::path& file) : in_(file, std::ios::binary) {
    if (!in_) throw std::runtime_error("cannot read " + file.string());
  }
  template <typename T>
  T pod() {
    T v{};
    in_.read(reinterpret_cast<char*>(&v), sizeof(T));
    if (!in_) throw std::runtime_error("truncated prepared file");
    return v;
  }
  std::uint64_t length(std::uint64_t limit) {
    const auto n = pod<std::uint64_t>();
    if (n > limit) throw std::runtime_error("corrupt prepared file (length out of range)");
    return n;
  }
  std::string bytes() {
    std::string s(length(std::uint64_t{1} << 32), '\0');
    in_.read(s.data(), static_cast<std::streamsize>(s.size()));
    if (!in_) throw std::runtime_error("truncated prepared file");
    return s;
  }
  template <typename T>
  std::vector<T> vec() {
    std::vector<T> v(length(std::uint64_t{1} << 28));
    in_.read(reinterpret_cast<char*>(v.data()), static_cast<std::streamsize>(v.size() * sizeof(T)));
    if (!in_) throw std::runtime_error("truncated prepared file");
    return v;
  }
  Frame frame() {
    const auto rows = pod<std::int32_t>();
    const auto cols = pod<std::int32_t>();
    if (rows < 0 || cols < 0 || rows > 4096 || cols > 4096) {
      throw std::runtime_error("corrupt prepared file (frame shape)");
    }
    Frame f(rows, cols);
    f.data() = vec<float>();
    if (f.data().size() != static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols)) {
      throw std::runtime_error("corrupt prepared file (frame size)");
    }
    return f;
  }
  monitor::DirectionalFrames frames() {
    monitor::DirectionalFrames d;
    for (auto& f : d) f = frame();
    return d;
  }
  void expect_end() {
    if (in_.peek() != std::ifstream::traits_type::eof()) {
      throw std::runtime_error("trailing bytes in prepared file");
    }
  }

 private:
  std::ifstream in_;
};

void header(Writer& w, char kind) {
  w.pod<char>('W');
  w.pod<char>(kind);
  w.pod(kFormatVersion);
}

void check_header(Reader& r, char kind) {
  const char magic = r.pod<char>();
  const char got = r.pod<char>();
  if (magic != 'W' || got != kind || r.pod<std::uint32_t>() != kFormatVersion) {
    throw std::runtime_error("prepared file has the wrong format");
  }
}

template <typename F>
double timed(F&& f) {
  const auto t0 = Clock::now();
  f();
  return seconds_between(t0, Clock::now());
}

}  // namespace

std::string recipe_text() {
  std::ostringstream os;
  os << "format=" << kFormatVersion << "\n8x8: " << describe_preset(preset_8x8(1)) << " mix=";
  for (const auto& b : train_mix_8x8()) os << b.name() << ",";
  os << "\n16x16: " << describe_preset(preset_16x16(1)) << " mix=";
  for (const auto& b : monitor::stp_benchmarks()) os << b.name() << ",";
  const auto h = heldout_config();
  os << "\nheldout: seed=" << h.seed << " scenarios=" << h.scenarios_per_benchmark
     << " benign=" << h.benign_samples_per_run << " attack=" << h.attack_samples_per_run
     << " warmup=" << h.warmup_cycles << " ramp=" << h.attack_ramp_cycles << " fir=" << h.fir
     << "\n";
  return os.str();
}

void write_snapshot(const fs::path& file, const runtime::ModelSnapshot& snap) {
  Writer w(file);
  header(w, 'S');
  w.pod(snap.config.detector.mesh.rows());
  w.pod(snap.config.detector.mesh.cols());
  w.pod<std::uint8_t>(snap.config.enable_temporal ? 1 : 0);
  w.pod(snap.config.temporal.sequence_length);
  w.bytes(snap.detector_weights);
  w.bytes(snap.localizer_weights);
  w.bytes(snap.temporal_weights);
  w.close();
}

runtime::ModelSnapshot read_snapshot(const fs::path& file) {
  Reader r(file);
  check_header(r, 'S');
  const auto rows = r.pod<std::int32_t>();
  const auto cols = r.pod<std::int32_t>();
  if (rows < 2 || cols < 2 || rows > 256 || cols > 256) {
    throw std::runtime_error("corrupt snapshot (mesh shape)");
  }
  runtime::ModelSnapshot snap;
  // Rebuilt the way runtime::train_model_snapshot builds it.
  snap.config = core::Dl2FenceConfig::paper_default(MeshShape(rows, cols));
  snap.config.enable_temporal = r.pod<std::uint8_t>() != 0;
  snap.config.temporal.sequence_length = r.pod<std::int32_t>();
  snap.detector_weights = r.bytes();
  snap.localizer_weights = r.bytes();
  snap.temporal_weights = r.bytes();
  r.expect_end();
  return snap;
}

void write_dataset(const fs::path& file, const monitor::Dataset& data) {
  Writer w(file);
  header(w, 'D');
  w.pod(data.mesh.rows());
  w.pod(data.mesh.cols());
  w.pod<std::uint64_t>(data.samples.size());
  for (const auto& s : data.samples) {
    w.frames(s.vco);
    w.frames(s.boc);
    w.vec(s.ni_load);
    w.pod(s.window_cycles);
    w.pod<std::uint8_t>(s.under_attack ? 1 : 0);
    w.frames(s.port_truth);
    w.vec(s.victim_truth);
    w.vec(s.scenario.attackers);
    w.pod(s.scenario.victim);
    w.pod(s.scenario.fir);
  }
  w.close();
}

monitor::Dataset read_dataset(const fs::path& file) {
  Reader r(file);
  check_header(r, 'D');
  const auto rows = r.pod<std::int32_t>();
  const auto cols = r.pod<std::int32_t>();
  if (rows < 2 || cols < 2 || rows > 256 || cols > 256) {
    throw std::runtime_error("corrupt dataset (mesh shape)");
  }
  monitor::Dataset data;
  data.mesh = MeshShape(rows, cols);
  data.samples.resize(r.length(std::uint64_t{1} << 24));
  for (auto& s : data.samples) {
    s.vco = r.frames();
    s.boc = r.frames();
    s.ni_load = r.vec<float>();
    s.window_cycles = r.pod<std::int64_t>();
    s.under_attack = r.pod<std::uint8_t>() != 0;
    s.port_truth = r.frames();
    s.victim_truth = r.vec<NodeId>();
    s.scenario.attackers = r.vec<NodeId>();
    s.scenario.victim = r.pod<NodeId>();
    s.scenario.fir = r.pod<double>();
  }
  r.expect_end();
  return data;
}

void prepare(const fs::path& dir, const std::string& key, std::int32_t threads) {
  fs::create_directories(dir);
  fs::remove(dir / kManifest);

  // The three products are independent; build them side by side. Weights
  // are byte-identical at any training thread count.
  runtime::ModelSnapshot snap8, snap16;
  monitor::Dataset heldout;
  double t8 = 0.0, t16 = 0.0, theld = 0.0;
  {
    std::jthread a([&] {
      t8 = timed([&] {
        snap8 = runtime::train_model_snapshot(MeshShape::square(8), train_mix_8x8(),
                                              preset_8x8(threads));
      });
    });
    std::jthread b([&] {
      t16 = timed([&] {
        snap16 = runtime::train_model_snapshot(MeshShape::square(16), monitor::stp_benchmarks(),
                                               preset_16x16(threads));
      });
    });
    theld = timed([&] {
      heldout = monitor::generate_dataset(heldout_config(), monitor::stp_benchmarks());
    });
  }

  write_snapshot(dir / kSnapshot8, snap8);
  write_snapshot(dir / kSnapshot16, snap16);
  write_dataset(dir / kHeldOut16, heldout);

  // Round-trip check: what the timed process will load is what was trained.
  for (const auto& [file, snap] :
       {std::pair{kSnapshot8, &snap8}, std::pair{kSnapshot16, &snap16}}) {
    const auto again = runtime::ModelSnapshot::capture(read_snapshot(dir / file).make_engine());
    if (again.detector_weights != snap->detector_weights ||
        again.localizer_weights != snap->localizer_weights ||
        again.temporal_weights != snap->temporal_weights ||
        again.config.enable_temporal != snap->config.enable_temporal) {
      throw std::runtime_error(std::string("snapshot round trip differs: ") + file);
    }
  }
  if (read_dataset(dir / kHeldOut16).samples.size() != heldout.samples.size()) {
    throw std::runtime_error("held-out round trip differs");
  }

  const fs::path tmp = dir / "manifest.tmp";
  {
    std::ofstream m(tmp, std::ios::trunc);
    m << "key = " << key << "\n"
      << "train_8x8_s = " << t8 << "\n"
      << "train_16x16_s = " << t16 << "\n"
      << "heldout_sim_s = " << theld << "\n"
      << "heldout_windows = " << heldout.samples.size() << "\n"
      << "train_threads = " << threads << "\n";
    if (!m) throw std::runtime_error("cannot write manifest");
  }
  fs::rename(tmp, dir / kManifest);
}

std::vector<std::pair<std::string, std::string>> read_manifest(const fs::path& dir,
                                                               const std::string& expected_key) {
  std::ifstream in(dir / kManifest);
  if (!in) throw std::runtime_error("no prepared inputs in " + dir.string());
  std::vector<std::pair<std::string, std::string>> entries;
  std::string line;
  while (std::getline(in, line)) {
    const auto eq = line.find(" = ");
    if (eq == std::string::npos) continue;
    entries.emplace_back(line.substr(0, eq), line.substr(eq + 3));
  }
  if (entries.empty() || entries.front().first != "key" ||
      entries.front().second != expected_key) {
    throw std::runtime_error("prepared inputs are stale (cache key differs); re-run preparation");
  }
  return entries;
}

}  // namespace winbench
