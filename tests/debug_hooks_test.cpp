// The Debug-build allocation instrumentation (common/debug_hooks.hpp):
// counting semantics, bypass nesting, violation abort, and the no-alloc
// contracts it enforces on the inference/training hot paths. Under
// NDEBUG the hooks collapse to inert stubs, so most assertions here are
// Debug-only by construction.
#include "common/debug_hooks.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "monitor/frame_geometry.hpp"

namespace dl2f {
namespace {

#ifndef NDEBUG

TEST(DebugHooks, CountsThreadAllocations) {
  const std::int64_t before = dbg::thread_allocation_count();
  const auto p = std::make_unique<int>(7);
  ASSERT_NE(p, nullptr);
  EXPECT_GE(dbg::thread_allocation_count() - before, 1);
}

TEST(DebugHooks, BypassedAllocationsAreNotCharged) {
  const std::int64_t before = dbg::thread_allocation_count();
  {
    const dbg::AllocBypassScope bypass;
    const auto p = std::make_unique<int>(7);
    ASSERT_NE(p, nullptr);
  }
  EXPECT_EQ(dbg::thread_allocation_count(), before);
}

TEST(DebugHooks, CleanScopePassesAndBypassNestsInsideScope) {
  const dbg::NoAllocScope no_alloc("DebugHooks.CleanScope");
  int local = 41;  // stack work is free
  ++local;
  const dbg::AllocBypassScope bypass;
  const auto p = std::make_unique<int>(local);  // exempted, scope stays clean
  EXPECT_EQ(*p, 42);
}

TEST(DebugHooksDeathTest, ViolationAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        const dbg::NoAllocScope no_alloc("DebugHooks.Violation");
        volatile int* leak = new int(7);  // contracted region allocates: abort
        (void)leak;
      },
      "NoAllocScope violation: DebugHooks.Violation");
}

// ---------------------------------------------------------------------
// The contract the hooks exist for: once an inference arena is bound,
// staging + batched inference through it allocates nothing. The session
// calls also exercise the NoAllocScopes wired inside detect_chunk /
// localize_into — a violation there aborts this whole test.
TEST(DebugHooks, BoundArenaInferenceIsAllocationFree) {
  const MeshShape mesh = MeshShape::square(4);
  core::PipelineEngine engine(core::Dl2FenceConfig::paper_default(mesh));
  Rng det_rng(7), loc_rng(8);
  engine.mutable_detector().model().init_weights(det_rng);
  engine.mutable_localizer().model().init_weights(loc_rng);

  const monitor::FrameGeometry geom(mesh);
  monitor::FrameSample sample;
  sample.under_attack = false;
  for (Direction d : kMeshDirections) {
    monitor::frame_of(sample.vco, d) = geom.make_frame();
    monitor::frame_of(sample.boc, d) = geom.make_frame();
    monitor::frame_of(sample.port_truth, d) = geom.make_frame();
  }

  // Exercise the in-session scopes: process (detector pass) and localize
  // (forced segmentation pass) both abort on a hot-path allocation.
  core::PipelineSession session(engine, 4);
  (void)session.process(sample);
  (void)session.localize(sample);

  // Pin the steady state explicitly through a caller-owned arena.
  nn::InferenceContext ctx;
  ctx.bind(engine.detector().model(), engine.detector().input_shape(), 1);
  engine.detector().preprocess_into(sample, ctx.input(1), 0);
  (void)engine.detector().model().infer_batch(ctx);  // warm-up pass
  const std::int64_t before = dbg::thread_allocation_count();
  for (int round = 0; round < 5; ++round) {
    engine.detector().preprocess_into(sample, ctx.input(1), 0);
    (void)engine.detector().model().infer_batch(ctx);
  }
  EXPECT_EQ(dbg::thread_allocation_count(), before)
      << "detector inference through a bound arena allocated";
}

#else  // NDEBUG

TEST(DebugHooks, StubsAreInertUnderNDEBUG) {
  const dbg::NoAllocScope no_alloc("release stub");
  const dbg::AllocBypassScope bypass;
  const auto p = std::make_unique<int>(7);  // would abort if hooks were live
  EXPECT_EQ(*p, 7);
  EXPECT_EQ(dbg::thread_allocation_count(), -1);
}

#endif

}  // namespace
}  // namespace dl2f
