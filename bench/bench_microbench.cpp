// Google-benchmark microbenchmarks: the runtime costs that determine the
// framework's monitoring cadence (§5: "features sampled every 1000 cycles
// ... higher system frequencies could allow shorter monitoring cycles").
//
//  * NoC simulation throughput per mesh size (the substrate's own cost)
//  * VCO/BOC frame sampling
//  * Detector inference per window
//  * Localizer segmentation per frame, and the full localization round
#include <benchmark/benchmark.h>

#include <memory>

#include "core/pipeline.hpp"
#include "monitor/dataset.hpp"
#include "traffic/simulation.hpp"

namespace {

using namespace dl2f;

void BM_MeshCycle(benchmark::State& state) {
  const auto r = static_cast<std::int32_t>(state.range(0));
  noc::MeshConfig cfg;
  cfg.shape = MeshShape::square(r);
  traffic::Simulation sim(cfg);
  sim.add_generator(std::make_unique<traffic::SyntheticTraffic>(
      traffic::SyntheticPattern::UniformRandom, 0.02, 1));
  sim.run(200);  // warm the network
  for (auto _ : state) {
    sim.step();
  }
  state.SetItemsProcessed(state.iterations() * cfg.shape.node_count());
}
BENCHMARK(BM_MeshCycle)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_VcoSampling(benchmark::State& state) {
  noc::MeshConfig cfg;
  cfg.shape = MeshShape::square(16);
  noc::Mesh mesh(cfg);
  const monitor::FeatureSampler sampler(cfg.shape);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample_vco(mesh));
  }
}
BENCHMARK(BM_VcoSampling);

void BM_BocSampling(benchmark::State& state) {
  noc::MeshConfig cfg;
  cfg.shape = MeshShape::square(16);
  noc::Mesh mesh(cfg);
  const monitor::FeatureSampler sampler(cfg.shape);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample_boc(mesh, false));
  }
}
BENCHMARK(BM_BocSampling);

monitor::FrameSample idle_sample(const MeshShape& mesh) {
  const monitor::FrameGeometry geom(mesh);
  monitor::FrameSample s;
  for (Direction d : kMeshDirections) {
    monitor::frame_of(s.vco, d) = geom.make_frame();
    monitor::frame_of(s.boc, d) = geom.make_frame();
  }
  return s;
}

/// A paper-default engine for `mesh` with deterministically initialized
/// weights (throughput does not depend on model quality).
core::PipelineEngine random_engine(const MeshShape& mesh) {
  core::PipelineEngine engine(core::Dl2FenceConfig::paper_default(mesh));
  Rng rng(3);
  engine.mutable_detector().model().init_weights(rng);
  engine.mutable_localizer().model().init_weights(rng);
  return engine;
}

void BM_DetectorInference(benchmark::State& state) {
  const auto mesh = MeshShape::square(static_cast<std::int32_t>(state.range(0)));
  const core::PipelineEngine engine = random_engine(mesh);
  core::PipelineSession session(engine, 1);
  const auto s = idle_sample(mesh);
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.detect_batch({&s, 1}));
  }
}
BENCHMARK(BM_DetectorInference)->Arg(8)->Arg(16);

void BM_LocalizerSegmentFrame(benchmark::State& state) {
  const auto mesh = MeshShape::square(static_cast<std::int32_t>(state.range(0)));
  const core::PipelineEngine engine = random_engine(mesh);
  const core::DoSLocalizer& loc = engine.localizer();
  nn::InferenceContext ctx;
  ctx.bind(loc.model(), loc.input_shape(), 1);
  const Frame f(mesh.rows(), mesh.cols() - 1, 100.0F);
  for (auto _ : state) {
    loc.preprocess_into(f, ctx.input(1), 0);
    benchmark::DoNotOptimize(loc.model().infer_batch(ctx).sample(0));
  }
}
BENCHMARK(BM_LocalizerSegmentFrame)->Arg(8)->Arg(16);

void BM_FullLocalizationRound(benchmark::State& state) {
  const core::PipelineEngine engine = random_engine(MeshShape::square(16));
  core::PipelineSession session(engine);
  const auto s = idle_sample(engine.geometry().mesh());
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.localize(s));
  }
}
BENCHMARK(BM_FullLocalizationRound);

}  // namespace

BENCHMARK_MAIN();
