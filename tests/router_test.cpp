#include "noc/router.hpp"

#include <gtest/gtest.h>

#include "common/geometry.hpp"
#include "noc/mesh.hpp"

namespace dl2f::noc {
namespace {

RouterConfig small_cfg() {
  RouterConfig cfg;
  cfg.vcs_per_port = 2;
  cfg.vc_depth = 2;
  return cfg;
}

Flit make_flit(NodeId src, NodeId dst, FlitType type = FlitType::HeadTail) {
  Flit f;
  f.packet = 1;
  f.src = static_cast<std::int16_t>(src);
  f.dst = static_cast<std::int16_t>(dst);
  f.type = type;
  return f;
}

/// Flits a standalone router staged for its neighbors (its links all feed
/// the Local lane).
const std::vector<StagedFlit>& sent(const StagingLanes& out) {
  return out.flits_to(Lane::Local);
}
const std::vector<StagedCredit>& credited(const StagingLanes& out) {
  return out.credits_to(Lane::Local);
}

TEST(Router, CornerAndCenterConnectivity) {
  const auto mesh = MeshShape::square(4);
  const Router corner(0, mesh, small_cfg());  // bottom-left (0,0)
  EXPECT_TRUE(corner.input(Direction::East).connected);
  EXPECT_TRUE(corner.input(Direction::North).connected);
  EXPECT_FALSE(corner.input(Direction::West).connected);
  EXPECT_FALSE(corner.input(Direction::South).connected);
  EXPECT_TRUE(corner.input(Direction::Local).connected);

  const Router center(5, mesh, small_cfg());  // (1,1)
  for (Direction d : kMeshDirections) EXPECT_TRUE(center.input(d).connected);
}

TEST(Router, VcOccupancyCountsOccupiedChannels) {
  const auto mesh = MeshShape::square(4);
  Router r(5, mesh, small_cfg());
  EXPECT_DOUBLE_EQ(r.input(Direction::East).vc_occupancy(), 0.0);
  r.accept_flit(Direction::East, 0, make_flit(6, 4));
  EXPECT_DOUBLE_EQ(r.input(Direction::East).vc_occupancy(), 0.5);
  r.accept_flit(Direction::East, 1, make_flit(6, 4));
  EXPECT_DOUBLE_EQ(r.input(Direction::East).vc_occupancy(), 1.0);
}

TEST(Router, DisconnectedPortReportsZeroOccupancy) {
  const auto mesh = MeshShape::square(4);
  const Router corner(0, mesh, small_cfg());
  EXPECT_DOUBLE_EQ(corner.input(Direction::West).vc_occupancy(), 0.0);
}

TEST(Router, AcceptFlitCountsBufferWrite) {
  const auto mesh = MeshShape::square(4);
  Router r(5, mesh, small_cfg());
  r.accept_flit(Direction::North, 0, make_flit(9, 1));
  EXPECT_EQ(r.input(Direction::North).telemetry.buffer_writes, 1);
  EXPECT_EQ(r.input(Direction::North).telemetry.buffer_reads, 0);
  EXPECT_EQ(r.input(Direction::North).telemetry.operations(), 1);
}

TEST(Router, EjectsFlitForOwnNode) {
  const auto mesh = MeshShape::square(4);
  Router r(5, mesh, small_cfg());
  r.accept_flit(Direction::East, 0, make_flit(6, 5));

  StagingLanes out;
  r.step(out);

  ASSERT_EQ(out.ejected.size(), 1U);
  EXPECT_EQ(out.ejected.front().dst, 5);
  EXPECT_TRUE(sent(out).empty());
  // Reading the flit returns a credit to the East upstream (node 6), for
  // the output port facing back at us.
  ASSERT_EQ(credited(out).size(), 1U);
  EXPECT_EQ(credited(out).front().to, 6);
  EXPECT_EQ(credited(out).front().out_dir, Direction::West);
  EXPECT_EQ(credited(out).front().vc, 0);
  EXPECT_EQ(r.input(Direction::East).telemetry.buffer_reads, 1);
}

TEST(Router, ForwardsFlitAlongXyRoute) {
  const auto mesh = MeshShape::square(4);
  Router r(5, mesh, small_cfg());
  // dst 7 = (3,1): same row, East of node 5=(1,1).
  r.accept_flit(Direction::West, 0, make_flit(4, 7));

  StagingLanes out;
  r.step(out);

  // Staged for the East neighbor (node 6), arriving on its West port.
  ASSERT_EQ(sent(out).size(), 1U);
  EXPECT_EQ(sent(out).front().to, 6);
  EXPECT_EQ(sent(out).front().in_dir, Direction::West);
  EXPECT_EQ(sent(out).front().flit.dst, 7);
  EXPECT_TRUE(out.ejected.empty());
}

TEST(Router, CreditDecrementsOnSendAndRestoresOnReturn) {
  const auto mesh = MeshShape::square(4);
  Router r(5, mesh, small_cfg());
  r.accept_flit(Direction::West, 0, make_flit(4, 7));

  StagingLanes out;
  r.step(out);
  ASSERT_EQ(sent(out).size(), 1U);
  const auto vc = sent(out).front().vc;
  EXPECT_EQ(r.output(Direction::East).credits[static_cast<std::size_t>(vc)],
            small_cfg().vc_depth - 1);
  r.accept_credit(Direction::East, vc);
  EXPECT_EQ(r.output(Direction::East).credits[static_cast<std::size_t>(vc)],
            small_cfg().vc_depth);
}

TEST(Router, NoCreditNoForwarding) {
  const auto mesh = MeshShape::square(4);
  Router r(5, mesh, small_cfg());
  // Exhaust all East credits manually.
  auto& east = r.output(Direction::East);
  std::fill(east.credits.begin(), east.credits.end(), 0);
  r.accept_flit(Direction::West, 0, make_flit(4, 7));

  StagingLanes out;
  r.step(out);
  EXPECT_TRUE(sent(out).empty());
  EXPECT_EQ(r.buffered_flits(), 1);
}

TEST(Router, TailFlitReleasesVirtualChannel) {
  const auto mesh = MeshShape::square(4);
  Router r(5, mesh, small_cfg());
  r.accept_flit(Direction::West, 0, make_flit(4, 7, FlitType::Head));
  r.accept_flit(Direction::West, 0, make_flit(4, 7, FlitType::Tail));
  const std::uint32_t all_free = (1U << small_cfg().vcs_per_port) - 1;
  EXPECT_EQ(r.output(Direction::East).free_vcs, all_free);

  StagingLanes out;
  r.step(out);  // head departs, holding downstream VC 0
  const auto& vc = r.input(Direction::West).vcs[0];
  EXPECT_EQ(vc.state, VirtualChannel::State::Active);
  EXPECT_EQ(r.output(Direction::East).free_vcs, all_free & ~1U);

  out.clear();
  r.step(out);  // tail departs
  EXPECT_EQ(vc.state, VirtualChannel::State::Idle);
  EXPECT_EQ(r.output(Direction::East).free_vcs, all_free);
}

TEST(Router, ClaimsLowestFreeDownstreamVc) {
  const auto mesh = MeshShape::square(4);
  RouterConfig cfg;
  cfg.vcs_per_port = 4;
  cfg.vc_depth = 2;
  Router r(5, mesh, cfg);
  const auto& east = r.output(Direction::East);
  EXPECT_EQ(east.free_vcs, 0b1111U);

  // Send one flit bound East (node 7) and return the downstream VC it used.
  StagingLanes out;
  const auto send = [&](Direction in, NodeId from, FlitType type) {
    r.accept_flit(in, 0, make_flit(from, 7, type));
    out.clear();
    r.step(out);
    EXPECT_EQ(sent(out).size(), 1U);
    return sent(out).empty() ? -1 : sent(out).front().vc;
  };
  EXPECT_EQ(send(Direction::West, 4, FlitType::Head), 0);
  EXPECT_EQ(send(Direction::North, 9, FlitType::Head), 1);
  EXPECT_EQ(east.free_vcs, 0b1100U);
  EXPECT_EQ(send(Direction::West, 4, FlitType::Tail), 0);  // releases VC 0
  EXPECT_EQ(east.free_vcs, 0b1101U);
  r.accept_credit(Direction::East, 0);  // downstream drains VC 0's two flits
  r.accept_credit(Direction::East, 0);
  EXPECT_EQ(send(Direction::South, 1, FlitType::Head), 0);  // lowest free, not 2
  EXPECT_EQ(east.free_vcs, 0b1100U);
}

TEST(Router, OneFlitPerOutputPortPerCycle) {
  const auto mesh = MeshShape::square(4);
  Router r(5, mesh, small_cfg());
  // Two packets from different inputs both heading East.
  r.accept_flit(Direction::West, 0, make_flit(4, 7));
  r.accept_flit(Direction::North, 0, make_flit(9, 7));

  StagingLanes out;
  r.step(out);
  EXPECT_EQ(sent(out).size(), 1U);  // East port serves one flit per cycle

  out.clear();
  r.step(out);
  EXPECT_EQ(sent(out).size(), 1U);  // the other one follows next cycle
  EXPECT_EQ(r.buffered_flits(), 0);
}

TEST(Router, RoundRobinDoesNotStarveInputs) {
  const auto mesh = MeshShape::square(4);
  RouterConfig cfg;
  cfg.vcs_per_port = 1;
  cfg.vc_depth = 8;
  Router r(5, mesh, cfg);

  // Keep both competing inputs saturated for several cycles; each must win
  // at least once in any window of a few cycles.
  int west_wins = 0, north_wins = 0;
  for (int cycle = 0; cycle < 8; ++cycle) {
    if (r.input(Direction::West).vcs[0].buffer.empty()) {
      r.accept_flit(Direction::West, 0, make_flit(4, 7));
    }
    if (r.input(Direction::North).vcs[0].buffer.empty()) {
      r.accept_flit(Direction::North, 0, make_flit(9, 7));
    }
    StagingLanes out;
    for (auto& c : r.output(Direction::East).credits) c = cfg.vc_depth;  // refill
    r.step(out);
    // A credit for the West upstream (node 4) means the West input won.
    for (const auto& c : credited(out)) {
      west_wins += c.to == 4 ? 1 : 0;
      north_wins += c.to == 9 ? 1 : 0;
    }
  }
  EXPECT_GE(west_wins, 2);
  EXPECT_GE(north_wins, 2);
}

TEST(Router, StagesEachHopIntoItsLinkEndsLane) {
  // 4x4 mesh in two row bands: rows 0-1 (ids 0-7) and rows 2-3 (ids 8-15).
  // Router 5 = (1,1) sits on the lower band's top row, so its North link
  // crosses into the next band while its East link stays local.
  MeshConfig cfg;
  cfg.shape = MeshShape::square(4);
  cfg.router = small_cfg();
  cfg.shards = 2;
  cfg.step_threads = 1;
  Mesh mesh(cfg);
  ASSERT_EQ(mesh.shard_count(), 2);
  Router& r = mesh.router(5);
  EXPECT_EQ(r.link(Direction::North).to, 9);
  EXPECT_EQ(r.link(Direction::North).port, Direction::South);
  EXPECT_EQ(r.link(Direction::North).lane, Lane::Next);
  EXPECT_EQ(r.link(Direction::East).lane, Lane::Local);
  // The upper band sees the same edge from the other side.
  EXPECT_EQ(mesh.router(9).link(Direction::South).to, 5);
  EXPECT_EQ(mesh.router(9).link(Direction::South).lane, Lane::Prev);

  // A head from the East neighbor (6) bound for 13 = (1,3): XY turns North.
  r.accept_flit(Direction::East, 1, make_flit(6, 13));
  StagingLanes out;
  r.step(out);

  const auto& next = out.flits_to(Lane::Next);
  ASSERT_EQ(next.size(), 1U);
  EXPECT_EQ(next.front().to, 9);
  EXPECT_EQ(next.front().in_dir, Direction::South);
  EXPECT_EQ(next.front().vc, 0);  // lowest free downstream VC
  EXPECT_EQ(next.front().flit.dst, 13);
  EXPECT_TRUE(out.flits_to(Lane::Local).empty());
  EXPECT_TRUE(out.flits_to(Lane::Prev).empty());

  // The credit for input (East, VC 1) goes back to router 6, same band.
  const auto& local = out.credits_to(Lane::Local);
  ASSERT_EQ(local.size(), 1U);
  EXPECT_EQ(local.front().to, 6);
  EXPECT_EQ(local.front().out_dir, Direction::West);
  EXPECT_EQ(local.front().vc, 1);
  EXPECT_TRUE(out.credits_to(Lane::Next).empty());
  EXPECT_TRUE(out.credits_to(Lane::Prev).empty());

  // A flit read off router 9's South input owes its credit to router 5,
  // upstream in the previous band.
  Router& up = mesh.router(9);
  up.accept_flit(Direction::South, 0, make_flit(5, 9));
  out.clear();
  up.step(out);
  ASSERT_EQ(out.ejected.size(), 1U);
  const auto& prev = out.credits_to(Lane::Prev);
  ASSERT_EQ(prev.size(), 1U);
  EXPECT_EQ(prev.front().to, 5);
  EXPECT_EQ(prev.front().out_dir, Direction::North);
  EXPECT_EQ(prev.front().vc, 0);
}

TEST(RouterRoute, FastRouteMatchesXyRouteStepOnEveryPair) {
  const MeshShape shapes[] = {MeshShape(1, 1), MeshShape(1, 7), MeshShape(7, 1),
                              MeshShape(3, 5), MeshShape::square(8), MeshShape::square(16)};
  for (const MeshShape& mesh : shapes) {
    const ColumnDivider div(mesh.cols());
    for (NodeId at = 0; at < mesh.node_count(); ++at) {
      const Coord here = mesh.coord_of(at);
      for (NodeId dst = 0; dst < mesh.node_count(); ++dst) {
        ASSERT_EQ(xy_route_from(here, dst, div), xy_route_step(mesh, at, dst))
            << mesh.rows() << "x" << mesh.cols() << " at " << at << " dst " << dst;
      }
    }
  }
}

TEST(RouterRoute, ColumnDividerIsExactForEveryMeshId) {
  // Mesh admits node_count <= 32767, so every id is below 2^15.
  const auto check = [](std::int32_t cols) {
    const ColumnDivider div(cols);
    for (std::int32_t n = 0; n < 32768; ++n) {
      if (div.quotient(n) != n / cols) {
        ADD_FAILURE() << n << " / " << cols << ": got " << div.quotient(n);
        return;
      }
    }
  };
  for (std::int32_t cols = 1; cols <= 256; ++cols) check(cols);
  check(181);
  check(32767);
}

}  // namespace
}  // namespace dl2f::noc
