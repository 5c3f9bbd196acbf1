// The flat-storage datapath's moving parts: the FlitFifo VC buffer,
// router-config validation, worklist activation/deactivation, and
// the zero-steady-state-allocation contract of Mesh::step.
#include <gtest/gtest.h>

#include <stdexcept>

#include "common/debug_hooks.hpp"
#include "noc/mesh.hpp"
#include "noc/router.hpp"

namespace dl2f::noc {
namespace {

Flit numbered_flit(std::int32_t seq) {
  Flit f;
  f.packet = 7;
  f.src = 0;
  f.dst = 1;
  f.seq = seq;
  return f;
}

TEST(FlitFifo, FifoOrderAcrossWraparoundOnBoundSlots) {
  // FlitFifo rings over router-owned slot arenas: repeatedly fill and
  // partly drain so head_ wraps the slots several times; FIFO order must
  // survive every wrap.
  Flit slots[8];
  FlitFifo fifo;
  fifo.bind(slots, 8);
  std::int32_t next_push = 0;
  std::int32_t next_pop = 0;
  for (int round = 0; round < 10; ++round) {
    while (fifo.size() < 8) fifo.push_back(numbered_flit(next_push++));
    for (int i = 0; i < 5; ++i) {
      ASSERT_FALSE(fifo.empty());
      EXPECT_EQ(fifo.front().seq, next_pop++);
      fifo.pop_front();
    }
  }
  while (!fifo.empty()) {
    EXPECT_EQ(fifo.front().seq, next_pop++);
    fifo.pop_front();
  }
  EXPECT_EQ(next_pop, next_push);
}

TEST(FlitFifo, ClearResetsToEmptyKeepingBinding) {
  Flit slots[4];
  FlitFifo fifo;
  fifo.bind(slots, 4);
  for (int i = 0; i < 3; ++i) fifo.push_back(numbered_flit(i));
  fifo.clear();
  EXPECT_TRUE(fifo.empty());
  fifo.push_back(numbered_flit(42));
  EXPECT_EQ(fifo.front().seq, 42);
}

TEST(RouterConfig, RejectsDepthsBeyondTheFifoCap) {
  const auto mesh = MeshShape::square(4);
  RouterConfig cfg;
  cfg.vc_depth = FlitFifo::kMaxCapacity + 1;
  EXPECT_THROW(Router(0, mesh, cfg), std::invalid_argument);
  cfg.vc_depth = 0;
  EXPECT_THROW(Router(0, mesh, cfg), std::invalid_argument);
  cfg.vc_depth = FlitFifo::kMaxCapacity;  // the boundary itself is valid
  EXPECT_NO_THROW(Router(0, mesh, cfg));
}

TEST(RouterConfig, RejectsVcCountsBeyondTheSlotMask) {
  const auto mesh = MeshShape::square(4);
  RouterConfig cfg;
  cfg.vcs_per_port = kMaxVcsPerPort + 1;
  EXPECT_THROW(Router(0, mesh, cfg), std::invalid_argument);
  cfg.vcs_per_port = 0;
  EXPECT_THROW(Router(0, mesh, cfg), std::invalid_argument);
  cfg.vcs_per_port = kMaxVcsPerPort;
  EXPECT_NO_THROW(Router(0, mesh, cfg));
}

TEST(MeshWorklist, RefusesSerializationBeyondVcDepth) {
  // A 6-flit packet through depth-2 VCs: flow control must hold every VC
  // at <= vc_depth flits while the packet still arrives complete.
  MeshConfig cfg;
  cfg.shape = MeshShape::square(4);
  cfg.packet_length_flits = 6;
  cfg.router.vc_depth = 2;
  Mesh mesh(cfg);
  mesh.inject(0, 3);
  for (int c = 0; c < 64 && !mesh.drained(); ++c) {
    mesh.step();
    for (NodeId id = 0; id < cfg.shape.node_count(); ++id) {
      const Router& r = mesh.router(id);
      for (std::size_t p = 0; p < kNumPorts; ++p) {
        for (const auto& vc : r.input(static_cast<Direction>(p)).vcs) {
          EXPECT_LE(vc.buffer.size(), cfg.router.vc_depth);
        }
      }
    }
  }
  EXPECT_TRUE(mesh.drained());
  EXPECT_EQ(mesh.stats().flits_ejected(), 6);
  EXPECT_EQ(mesh.stats().packets_ejected(), 1);
}

TEST(MeshWorklist, RoutersReactivateAfterGoingIdle) {
  // Deactivation must not be sticky: traffic -> full drain -> traffic
  // again through the same routers.
  Mesh mesh(MeshConfig{MeshShape::square(4), RouterConfig{}, 5});
  for (int round = 0; round < 3; ++round) {
    mesh.inject(0, 15);
    mesh.inject(5, 10);
    std::int64_t spare = 1000;
    while (!mesh.drained() && spare-- > 0) mesh.step();
    ASSERT_TRUE(mesh.drained()) << "round " << round;
  }
  EXPECT_EQ(mesh.stats().packets_ejected(), 6);
  EXPECT_EQ(mesh.stats().flits_ejected(), 30);
}

TEST(MeshWorklist, SourceReactivatesAfterQuarantineFlush) {
  // A quarantine flush empties the source queue (the node leaves the
  // source worklist); release + re-inject must flow again.
  Mesh mesh(MeshConfig{MeshShape::square(4), RouterConfig{}, 5});
  for (int i = 0; i < 8; ++i) mesh.inject(0, 15);
  mesh.run(2);
  mesh.set_quarantined(0, true);
  std::int64_t spare = 1000;
  while (!mesh.drained() && spare-- > 0) mesh.step();
  ASSERT_TRUE(mesh.drained());

  mesh.set_quarantined(0, false);
  EXPECT_GE(mesh.inject(0, 15), 0);
  spare = 1000;
  while (!mesh.drained() && spare-- > 0) mesh.step();
  ASSERT_TRUE(mesh.drained());
  EXPECT_GT(mesh.stats().packets_ejected(), 1);
}

TEST(MeshWorklist, ActiveButEmptyVcResumesOnNextFlit) {
  // With 1-flit/cycle injection and a 1-hop route, the in-network VC
  // drains as fast as it fills: the router repeatedly goes buffered == 0
  // mid-packet (Active-but-empty VC) and must wake for every later flit.
  MeshConfig cfg;
  cfg.shape = MeshShape(1, 2);
  cfg.packet_length_flits = 8;
  Mesh mesh(cfg);
  mesh.inject(0, 1);
  std::int64_t spare = 200;
  while (!mesh.drained() && spare-- > 0) mesh.step();
  ASSERT_TRUE(mesh.drained());
  EXPECT_EQ(mesh.stats().flits_ejected(), 8);
  EXPECT_EQ(mesh.stats().packets_ejected(), 1);
}

TEST(MeshAllocation, SteadyStateStepIsAllocationFree) {
  // Load the mesh with a deep multi-node backlog, warm the arenas, then
  // assert that continued stepping — NI serialization, VA/SA/ST, link
  // crossings, ejections, stats, worklist churn — performs ZERO heap
  // allocations. (Injection itself may allocate in the source deques;
  // that happens outside Mesh::step by design.)
  //
  // The counter lives in common/debug_hooks.cpp (Debug-only operator-new
  // replacement); under NDEBUG the explicit count check is skipped, but
  // the NoAllocScope inside Mesh::step asserts the same contract live on
  // every Debug/sanitize ctest run regardless of this test.
  MeshConfig cfg;
  cfg.shape = MeshShape::square(8);
  cfg.packet_length_flits = 5;
  Mesh mesh(cfg);
  for (int i = 0; i < 250; ++i) {
    for (NodeId src = 0; src < 64; src += 3) {
      mesh.inject(src, (src * 31 + i) % 64);
    }
  }
  // The arenas are reserved at their physical per-cycle maxima in the
  // Mesh constructor, so stepping never allocates — not even while
  // congestion is still building toward its peak.
  mesh.run(100);
  ASSERT_FALSE(mesh.drained());

  const std::int64_t before = dl2f::dbg::thread_allocation_count();
  mesh.run(300);
  const std::int64_t after = dl2f::dbg::thread_allocation_count();
#ifndef NDEBUG
  EXPECT_EQ(after - before, 0) << "Mesh::step allocated in steady state";
#else
  EXPECT_EQ(before, -1);  // hooks compiled out; NoAllocScope covers Debug
  EXPECT_EQ(after, -1);
#endif
  EXPECT_GT(mesh.stats().flits_ejected(), 0);
}

TEST(MeshAllocation, ShardedSteadyStateStepIsAllocationFree) {
  // Same contract with the sharded engine actually engaged: 16 rows split
  // into 4 row-band shards, so the cross-shard staging arenas (arrivals /
  // credits to the previous/next band) are exercised every cycle. The
  // allocation counter is thread-local, so the coordinator must execute
  // every shard itself: step_threads = 1 keeps phase work on this thread
  // while leaving the shard partition and staging/apply order identical to
  // the pooled run (the bitwise-determinism contract).
  MeshConfig cfg;
  cfg.shape = MeshShape::square(16);
  cfg.packet_length_flits = 5;
  cfg.shards = 4;
  cfg.step_threads = 1;
  Mesh mesh(cfg);
  ASSERT_EQ(mesh.shard_count(), 4);
  for (int i = 0; i < 250; ++i) {
    for (NodeId src = 0; src < 256; src += 5) {
      // Destinations spread over all four bands so every shard boundary
      // carries N/S traffic while the counter is armed.
      mesh.inject(src, (src * 37 + i * 11) % 256);
    }
  }
  mesh.run(100);
  ASSERT_FALSE(mesh.drained());

  const std::int64_t before = dl2f::dbg::thread_allocation_count();
  mesh.run(300);
  const std::int64_t after = dl2f::dbg::thread_allocation_count();
#ifndef NDEBUG
  EXPECT_EQ(after - before, 0) << "sharded Mesh::step allocated in steady state";
#else
  EXPECT_EQ(before, -1);
  EXPECT_EQ(after, -1);
#endif
  EXPECT_GT(mesh.stats().flits_ejected(), 0);
}

}  // namespace
}  // namespace dl2f::noc
