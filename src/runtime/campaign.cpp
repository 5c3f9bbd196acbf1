#include "runtime/campaign.hpp"

#include <atomic>
#include <cassert>
#include <iomanip>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/detector.hpp"
#include "core/localizer.hpp"
#include "monitor/dataset.hpp"
#include "temporal/adversarial.hpp"

namespace dl2f::runtime {
namespace {

JobResult run_job(const CampaignConfig& cfg, const core::PipelineEngine& engine,
                  const std::string& family, const monitor::Benchmark& workload,
                  std::uint64_t seed) {
  JobResult result;
  result.family = family;
  result.workload = workload.name();
  result.seed = seed;

  // Each job's randomness is a pure function of its grid coordinates —
  // never of worker id or execution order — so any thread count replays
  // the identical campaign. The workload hash goes through mix64 so the
  // two string hashes cannot cancel each other under the XOR.
  const std::uint64_t job_seed = seed ^ fnv1a(family) ^ mix64(fnv1a(result.workload));
  ScenarioParams params = cfg.params;
  params.benign = workload;
  auto scenario = ScenarioRegistry::instance().make(family, params, job_seed);
  if (scenario == nullptr) {
    // A registered factory may still return nullptr for params it cannot
    // serve; surface that as a diagnosable error, not a worker crash.
    throw std::invalid_argument("run_campaign: scenario factory '" + family +
                                "' returned nullptr for the campaign params");
  }

  noc::MeshConfig mesh_cfg;
  mesh_cfg.shape = cfg.params.mesh;
  mesh_cfg.router = cfg.router;
  mesh_cfg.shards = cfg.mesh_shards;
  mesh_cfg.step_threads = cfg.mesh_step_threads;
  traffic::Simulation sim(mesh_cfg);
  scenario->install(sim, job_seed ^ 0x9e3779b97f4a7c15ULL);

  DefenseRuntime runtime(sim, engine, cfg.defense);
  runtime.attach_scenario(scenario.get());
  runtime.run_windows(cfg.windows);
  result.summary = runtime.summarize(cfg.recovery_ratio);
  return result;
}

}  // namespace

ModelSnapshot ModelSnapshot::capture(const core::PipelineEngine& engine) {
  ModelSnapshot snap;
  snap.config = engine.config();
  std::ostringstream det, loc;
  engine.detector().model().save(det);
  engine.localizer().model().save(loc);
  snap.detector_weights = det.str();
  snap.localizer_weights = loc.str();
  if (engine.has_temporal()) {
    std::ostringstream tmp;
    engine.temporal().model().save(tmp);
    snap.temporal_weights = tmp.str();
  }
  return snap;
}

core::PipelineEngine ModelSnapshot::make_engine() const {
  std::istringstream det(detector_weights), loc(localizer_weights);
  if (!temporal_weights.empty()) {
    std::istringstream tmp(temporal_weights);
    return core::PipelineEngine(config, det, loc, tmp);
  }
  if (config.enable_temporal) {
    throw std::runtime_error(
        "ModelSnapshot::make_engine: config.enable_temporal is set but the temporal blob is empty");
  }
  return core::PipelineEngine(config, det, loc);
}

ModelSnapshot train_model_snapshot(const MeshShape& mesh, const monitor::Benchmark& benign,
                                   const TrainPreset& preset) {
  return train_model_snapshot(mesh, std::vector<monitor::Benchmark>{benign}, preset);
}

ModelSnapshot train_model_snapshot(const MeshShape& mesh,
                                   const std::vector<monitor::Benchmark>& benigns,
                                   const TrainPreset& preset) {
  monitor::DatasetConfig data_cfg;
  data_cfg.mesh = mesh;
  data_cfg.scenarios_per_benchmark = preset.scenarios;
  data_cfg.benign_samples_per_run = preset.benign_samples;
  data_cfg.attack_samples_per_run = preset.attack_samples;
  data_cfg.seed = preset.seed;
  const monitor::Dataset data = monitor::generate_dataset(data_cfg, benigns);

  core::Dl2FenceConfig fence_cfg = core::Dl2FenceConfig::paper_default(mesh);
  fence_cfg.enable_temporal = preset.temporal;
  fence_cfg.temporal.sequence_length = preset.sequence_length;
  core::PipelineEngine engine(fence_cfg);
  core::TrainConfig det_cfg;
  det_cfg.epochs = preset.detector_epochs;
  det_cfg.seed = preset.seed ^ 0x42;
  det_cfg.threads = preset.threads;
  core::train_detector(engine.mutable_detector(), data, det_cfg);
  core::LocalizerTrainConfig loc_cfg;
  loc_cfg.epochs = preset.localizer_epochs;
  loc_cfg.seed = preset.seed ^ 0x43;
  loc_cfg.threads = preset.threads;
  core::train_localizer(engine.mutable_localizer(), data, loc_cfg);

  if (preset.temporal) {
    // Adversarial retraining preset: the sequence grid mixes every
    // registered family — static AND evasive — over the same benign
    // workloads, so the temporal head sees pulse troughs, ramp onsets and
    // colluding low-rate floods at training time.
    temporal::SequenceDatasetConfig seq_cfg;
    seq_cfg.mesh = mesh;
    seq_cfg.sequence_length = preset.sequence_length;
    seq_cfg.windows_per_run = preset.temporal_windows_per_run;
    seq_cfg.runs_per_cell = preset.temporal_runs_per_cell;
    seq_cfg.params.mesh = mesh;
    seq_cfg.seed = preset.seed;
    const std::vector<std::string> families = preset.adversarial_families.empty()
                                                  ? all_scenario_families()
                                                  : preset.adversarial_families;
    const temporal::SequenceDataset seq_data = temporal::generate_sequence_dataset(
        seq_cfg, families, preset.temporal_benigns.empty() ? benigns : preset.temporal_benigns);

    temporal::TemporalTrainConfig tmp_cfg;
    tmp_cfg.epochs = preset.temporal_epochs;
    tmp_cfg.seed = preset.seed ^ 0x44;
    tmp_cfg.threads = preset.threads;
    temporal::train_temporal_detector(engine.mutable_temporal(), seq_data, tmp_cfg);
  }
  return ModelSnapshot::capture(engine);
}

CampaignResult run_campaign(const CampaignConfig& cfg, const ModelSnapshot& model) {
  // Validate the grid before any worker spawns: a typo'd family name or a
  // mesh/model mismatch must be a diagnosable error, not a crash inside a
  // worker thread.
  if (!(cfg.params.mesh == model.config.detector.mesh)) {
    throw std::invalid_argument("run_campaign: cfg.params.mesh does not match the model's mesh");
  }
  for (const auto& family : cfg.families) {
    if (!ScenarioRegistry::instance().contains(family)) {
      throw std::invalid_argument("run_campaign: unknown scenario family '" + family + "'");
    }
  }

  // Workload axis: an empty list means "the params.benign workload only"
  // (the original two-axis grid, with the workload still recorded).
  const std::vector<monitor::Benchmark> workloads =
      cfg.workloads.empty() ? std::vector<monitor::Benchmark>{cfg.params.benign} : cfg.workloads;

  struct Job {
    const std::string* family;
    const monitor::Benchmark* workload;
    std::uint64_t seed;
  };
  std::vector<Job> jobs;
  jobs.reserve(cfg.families.size() * workloads.size() * cfg.seeds.size());
  for (const auto& family : cfg.families) {
    for (const auto& workload : workloads) {
      for (const std::uint64_t seed : cfg.seeds) jobs.push_back(Job{&family, &workload, seed});
    }
  }

  CampaignResult result;
  result.jobs.resize(jobs.size());
  if (jobs.empty()) return result;

  // Touch the registry singleton before spawning workers so its lazy
  // construction never races.
  (void)ScenarioRegistry::instance().names();

  // The campaign's single weight deserialization: one const engine, shared
  // by reference across the whole pool (each job's DefenseRuntime carries
  // its own PipelineSession scratch).
  const core::PipelineEngine engine = model.make_engine();

  const auto worker_count = static_cast<std::size_t>(
      std::max(1, std::min<std::int32_t>(cfg.threads, static_cast<std::int32_t>(jobs.size()))));
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  const auto worker = [&]() {
    // Workers share the one engine read-only; scoring state lives in each
    // job's session, so reuse is safe and deterministic. A worker
    // exception (factory refusing the params) stops the pool and is
    // rethrown to the caller instead of terminating the process.
    try {
      while (!failed.load(std::memory_order_relaxed)) {
        const std::size_t i = cursor.fetch_add(1);
        if (i >= jobs.size()) break;
        result.jobs[i] = run_job(cfg, engine, *jobs[i].family, *jobs[i].workload, jobs[i].seed);
      }
    } catch (...) {
      const std::scoped_lock lock(error_mutex);
      if (first_error == nullptr) first_error = std::current_exception();
      failed.store(true, std::memory_order_relaxed);
    }
  };

  if (worker_count == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(worker_count);
    for (std::size_t t = 0; t < worker_count; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  if (first_error != nullptr) std::rethrow_exception(first_error);
  return result;
}

TextTable CampaignResult::family_table(const std::vector<std::string>& family_order) const {
  TextTable table({"Scenario", "Jobs", "Det acc", "Det F1", "Attacker F1", "Mitigated",
                   "TTM (cyc)", "Recovered", "Lat ratio"});
  for (const auto& family : family_order) {
    double det_acc = 0.0, det_f1 = 0.0, atk_f1 = 0.0, ttm = 0.0, ratio = 0.0;
    std::int64_t n = 0, mitigated = 0, recovered = 0;
    for (const auto& job : jobs) {
      if (job.family != family) continue;
      ++n;
      det_acc += job.summary.detection.accuracy;
      det_f1 += job.summary.detection.f1;
      atk_f1 += job.summary.attacker_id.f1;
      if (job.summary.mitigated()) {
        ++mitigated;
        ttm += static_cast<double>(job.summary.time_to_mitigate());
      }
      if (job.summary.recovered() && job.summary.baseline_latency > 0.0) {
        ++recovered;
        ratio += job.summary.recovered_latency / job.summary.baseline_latency;
      }
    }
    if (n == 0) continue;
    const auto dn = static_cast<double>(n);
    table.add_row({family, std::to_string(n), TextTable::cell(det_acc / dn),
                   TextTable::cell(det_f1 / dn), TextTable::cell(atk_f1 / dn),
                   TextTable::cell(static_cast<double>(mitigated) / dn, 2),
                   mitigated > 0 ? TextTable::cell(ttm / static_cast<double>(mitigated), 0)
                                 : "-",
                   TextTable::cell(static_cast<double>(recovered) / dn, 2),
                   recovered > 0 ? TextTable::cell(ratio / static_cast<double>(recovered), 2)
                                 : "-"});
  }
  return table;
}

std::string CampaignResult::serialize() const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(6);
  for (const auto& job : jobs) {
    const auto& s = job.summary;
    os << job.family << " workload=" << job.workload << " seed=" << job.seed
       << " windows=" << s.windows
       << " det_acc=" << s.detection.accuracy << " det_f1=" << s.detection.f1
       << " atk_f1=" << s.attacker_id.f1 << " first_attack=" << s.first_attack_cycle
       << " detect=" << s.detect_cycle << " mitigate=" << s.mitigate_cycle
       << " recover=" << s.recover_cycle << " baseline=" << s.baseline_latency
       << " baseline_p50=" << s.baseline_p50 << " baseline_p99=" << s.baseline_p99
       << " peak=" << s.peak_latency << " recovered=" << s.recovered_latency
       << " fences=" << s.fence_events << " false_fences=" << s.false_fence_events << '\n';
  }
  return os.str();
}

}  // namespace dl2f::runtime
