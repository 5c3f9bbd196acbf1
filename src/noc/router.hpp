// A 5-port virtual-channel wormhole router (Garnet-style).
//
// Each input port owns `vcs_per_port` virtual channels, each a FIFO of
// `vc_depth` flits. The per-cycle micro-pipeline is the classic
// RC -> VA -> SA -> ST sequence, collapsed into one cycle per hop:
//
//   * Route computation: an Idle VC whose front flit is a head computes the
//     XY output direction.
//   * VC allocation: the VC claims a free downstream virtual channel on
//     that output (ownership lasts until the tail flit leaves).
//   * Switch allocation: among all input VCs with a buffered flit, an
//     allocated output and at least one credit, one winner is chosen per
//     output port AND per input port (round-robin priority).
//   * Switch/link traversal: the winning flit is popped (a buffer read),
//     a credit is returned upstream, and the flit is latched onto the
//     output link to arrive at the neighbor next cycle.
//
// The router also accumulates the two telemetry features DL2Fence consumes:
// instantaneous virtual-channel occupancy (VCO) and accumulated buffer
// operation counts (BOC = buffer writes + reads since the last sample).
//
// Storage layout (ISSUE 9): stepping a 32x32 mesh is bound by cache misses,
// not arithmetic, so the router separates its *control* state from its
// *payload* storage. Everything the per-cycle VA/SA scans touch — port
// structs, VC metadata, credit arrays, occupancy bitmasks — lives inline or
// in one small per-router vector (vc_storage_), a few hundred bytes per
// router that stays resident in L2 for whole sweeps. The flit slots
// themselves live in a second per-router vector (slot_storage_) sized by
// the *configured* vc_depth, reached only when a flit is actually pushed
// or popped. Both vectors are heap-stable, so Router is cheaply movable
// (vector reallocation of Mesh::routers_ preserves every internal span).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/geometry.hpp"
#include "noc/flit.hpp"

namespace dl2f::noc {

struct RouterConfig {
  std::int32_t vcs_per_port = 4;  ///< at most kMaxVcsPerPort (slot bitmasks are 64-bit)
  std::int32_t vc_depth = 4;      ///< flit slots per VC; at most FlitFifo::kMaxCapacity
};

/// Upper bound on vcs_per_port: every (input port, VC) pair is one bit in
/// the router's 64-bit occupancy masks, so kNumPorts * vcs_per_port <= 64;
/// 8 also bounds the fixed-capacity credit arrays in OutputPort below.
inline constexpr std::int32_t kMaxVcsPerPort = 8;

/// One virtual channel: wormhole allocation state plus a flit FIFO whose
/// slots live out-of-line in the router's slot arena (see file comment).
struct VirtualChannel {
  enum class State : std::uint8_t { Idle, Active };

  FlitFifo buffer;
  State state = State::Idle;
  Direction out_dir = Direction::Local;  ///< valid when Active
  /// Memoized XY route of the head flit at the FRONT of the buffer, for
  /// Idle VCs stalled in VC allocation: a VA retry re-reads this instead
  /// of redoing the coord_of division chain every cycle (invalidated
  /// whenever the front flit changes packet — push-to-empty, tail pop).
  Direction cached_route = Direction::Local;
  bool route_cached = false;
  std::int32_t out_vc = -1;              ///< downstream VC id, valid when Active

  [[nodiscard]] bool empty() const noexcept { return buffer.empty(); }
  [[nodiscard]] bool occupied() const noexcept {
    return !buffer.empty() || state == State::Active;
  }
};

/// Contiguous view of one input port's virtual channels (they live in the
/// router's vc_storage_ arena). Iterates and indexes like the
/// std::vector<VirtualChannel> it replaced.
class VcSpan {
 public:
  VcSpan() = default;
  VcSpan(VirtualChannel* data, std::int32_t count) noexcept : data_(data), count_(count) {}

  [[nodiscard]] std::size_t size() const noexcept { return static_cast<std::size_t>(count_); }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] VirtualChannel* begin() noexcept { return data_; }
  [[nodiscard]] VirtualChannel* end() noexcept { return data_ + count_; }
  [[nodiscard]] const VirtualChannel* begin() const noexcept { return data_; }
  [[nodiscard]] const VirtualChannel* end() const noexcept { return data_ + count_; }
  [[nodiscard]] VirtualChannel& operator[](std::size_t i) noexcept { return data_[i]; }
  [[nodiscard]] const VirtualChannel& operator[](std::size_t i) const noexcept {
    return data_[i];
  }

 private:
  VirtualChannel* data_ = nullptr;
  std::int32_t count_ = 0;
};

/// Per-input-port feature counters sampled by the global monitor.
struct PortTelemetry {
  std::int64_t buffer_writes = 0;  ///< flits enqueued since last reset
  std::int64_t buffer_reads = 0;   ///< flits dequeued since last reset

  void reset() noexcept { buffer_writes = buffer_reads = 0; }
  [[nodiscard]] std::int64_t operations() const noexcept { return buffer_writes + buffer_reads; }
};

struct InputPort {
  VcSpan vcs;  ///< this port's virtual channels (router-owned storage)
  PortTelemetry telemetry;
  bool connected = false;  ///< false for edge-facing ports that have no link

  // Occupancy accounting for the VCO feature. Garnet routers hold flits
  // across a 4-5 stage pipeline, so an instantaneous VC-occupancy snapshot
  // there reflects sustained congestion; this router is single-cycle and
  // drains VCs far faster, so the monitor reads the *time-averaged*
  // occupancy over the sampling window instead (same [0,1] range and
  // semantics — see DESIGN.md substitutions). The integral is maintained
  // incrementally at occupancy transitions, keeping idle routers free.
  std::int32_t occupied_vcs = 0;    ///< current number of occupied VCs
  std::int64_t occ_integral = 0;    ///< sum over cycles of occupied_vcs
  Cycle occ_last_update = 0;
  Cycle occ_window_start = 0;

  /// Fold elapsed time into the occupancy integral before a transition.
  void occ_touch(Cycle now) noexcept {
    occ_integral += occupied_vcs * (now - occ_last_update);
    occ_last_update = now;
  }
  /// Start a new averaging window (monitor sampling boundary).
  void occ_reset(Cycle now) noexcept {
    occ_integral = 0;
    occ_last_update = now;
    occ_window_start = now;
  }

  /// Fraction of this port's VCs currently holding a packet
  /// (occupied VCs / total VCs, instantaneous, in [0,1]).
  [[nodiscard]] double vc_occupancy() const noexcept;

  /// Time-averaged VC occupancy since the last occ_reset, in [0,1].
  /// Falls back to the instantaneous value when no time has elapsed.
  [[nodiscard]] double avg_vc_occupancy(Cycle now) const noexcept;
};

struct OutputPort {
  /// Credits per downstream VC (free buffer slots we may still send into).
  /// Fixed-capacity so the port is inline and trivially movable; entries
  /// at index >= the configured vcs_per_port are unused.
  std::array<std::int32_t, kMaxVcsPerPort> credits{};
  /// Which downstream VC ids are currently owned by one of our input VCs.
  std::array<bool, kMaxVcsPerPort> vc_in_use{};
  std::int32_t vc_count = 0;  ///< configured vcs_per_port (scan bound)
  bool connected = false;

  [[nodiscard]] std::optional<std::int32_t> find_free_vc() const noexcept;
};

/// A flit leaving through an output port this cycle (applied by the mesh).
struct LinkTransfer {
  Direction out_dir = Direction::Local;
  std::int32_t out_vc = -1;
  Flit flit;
};

/// A credit returned to the upstream router this cycle.
struct CreditReturn {
  Direction in_dir = Direction::Local;  ///< input port the flit was read from
  std::int32_t vc = -1;
};

class Router {
 public:
  /// Throws std::invalid_argument when `cfg` is out of range (vc_depth
  /// must fit the slot cap: 1 <= vc_depth <= FlitFifo::kMaxCapacity,
  /// vcs_per_port >= 1).
  Router(NodeId id, const MeshShape& mesh, const RouterConfig& cfg);

  // Movable (heap-stable internal arenas; see file comment), not copyable:
  // a copy would alias the source's VC/slot storage through the spans.
  Router(Router&&) noexcept = default;
  Router& operator=(Router&&) noexcept = default;
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] const RouterConfig& config() const noexcept { return cfg_; }

  [[nodiscard]] InputPort& input(Direction d) noexcept {
    return inputs_[static_cast<std::size_t>(d)];
  }
  [[nodiscard]] const InputPort& input(Direction d) const noexcept {
    return inputs_[static_cast<std::size_t>(d)];
  }
  [[nodiscard]] OutputPort& output(Direction d) noexcept {
    return outputs_[static_cast<std::size_t>(d)];
  }
  [[nodiscard]] const OutputPort& output(Direction d) const noexcept {
    return outputs_[static_cast<std::size_t>(d)];
  }

  /// Enqueue a flit arriving on input port `d`, VC `vc` (counts one buffer
  /// write). The caller guarantees a free slot (credit flow control).
  /// `now` timestamps the occupancy transition for VCO averaging.
  void accept_flit(Direction d, std::int32_t vc, const Flit& flit, Cycle now = 0);

  /// Re-credit a downstream VC slot after the neighbor drained one flit.
  void accept_credit(Direction out_dir, std::int32_t vc) noexcept;

  /// Run one cycle of RC/VA/SA/ST. Ejected flits (destination reached) are
  /// appended to `ejected`; flits bound for neighbors to `transfers`;
  /// credits owed upstream to `credits`.
  void step(const MeshShape& mesh, std::vector<LinkTransfer>& transfers,
            std::vector<CreditReturn>& credits, std::vector<Flit>& ejected, Cycle now = 0);

  /// Total flits buffered across all ports (for drain / deadlock checks).
  [[nodiscard]] std::int64_t buffered_flits() const noexcept { return buffered_; }

 private:
  void allocate_vcs(const MeshShape& mesh);

  /// Slot index of (input port, vc) in the occupancy bitmasks below.
  [[nodiscard]] std::size_t slot_of(std::size_t port, std::size_t vc) const noexcept {
    return port * static_cast<std::size_t>(cfg_.vcs_per_port) + vc;
  }
  /// Mask covering every VC slot of one input port.
  [[nodiscard]] std::uint64_t port_slots(std::size_t port) const noexcept {
    const auto vcs = static_cast<std::size_t>(cfg_.vcs_per_port);
    return ((std::uint64_t{1} << vcs) - 1) << (port * vcs);
  }
  /// Input port of a slot index — a shift when vcs_per_port is a power of
  /// two (every stock config), avoiding a hardware divide on the SA/VA
  /// hot path; the general divide only runs for odd configurations.
  [[nodiscard]] std::size_t slot_port(std::size_t slot) const noexcept {
    return vcs_shift_ >= 0 ? slot >> vcs_shift_
                           : slot / static_cast<std::size_t>(cfg_.vcs_per_port);
  }
  /// VC index of a slot within its input port (see slot_port).
  [[nodiscard]] std::size_t slot_vc(std::size_t slot) const noexcept {
    return vcs_shift_ >= 0 ? slot & ((std::size_t{1} << vcs_shift_) - 1)
                           : slot % static_cast<std::size_t>(cfg_.vcs_per_port);
  }

  NodeId id_;
  RouterConfig cfg_;
  std::int32_t vcs_shift_ = -1;  ///< log2(vcs_per_port), or -1 if not a power of two
  std::array<InputPort, kNumPorts> inputs_;
  std::array<OutputPort, kNumPorts> outputs_;
  std::array<std::size_t, kNumPorts> sa_round_robin_{};  ///< per-output priority pointer
  std::size_t va_round_robin_ = 0;  ///< rotating start for VC allocation fairness
  std::int64_t buffered_ = 0;       ///< flits currently buffered (idle fast-path)

  // Hot-path occupancy bitmasks, one bit per (input port, VC) slot. The
  // VA/SA stages iterate set bits in rotated round-robin order instead of
  // sweeping every slot — visiting an empty VirtualChannel costs a cache
  // line, and most slots are empty under realistic loads.
  // Invariants (maintained at every flit push/pop, credit movement and
  // state transition):
  //   nonempty_slots_  bit set  <=>  that VC's ring holds >= 1 flit
  //   active_slots_    bit set  <=>  that VC's state == Active
  //   routed_to_[d]    bit set  <=>  Active, out_dir == d AND non-empty
  //   credited_routed_to_[d] = routed_to_[d] restricted to slots whose
  //                    downstream VC has a credit (Local always does) —
  //                    exactly the SA eligibility test, so under
  //                    saturation SA picks its winner in one bit scan
  //                    instead of walking credit-starved slots (ISSUE 9:
  //                    this scan dominated 32x32 attack stepping).
  //   vc_owner_[d][v]  slot of the Active input VC owning downstream
  //                    (d, v), or -1 — lets a returning credit re-arm
  //                    exactly the one slot it un-starves.
  std::uint64_t nonempty_slots_ = 0;
  std::uint64_t active_slots_ = 0;
  std::array<std::uint64_t, kNumPorts> routed_to_{};
  std::array<std::uint64_t, kNumPorts> credited_routed_to_{};
  std::array<std::array<std::int8_t, kMaxVcsPerPort>, kNumPorts> vc_owner_{};

  // Blocked-router fast path. A slot routes to exactly one output, so the
  // credited_routed_to_ masks are pairwise disjoint and their union can be
  // maintained bit-for-bit alongside them:
  //   credited_union_   = OR of credited_routed_to_[d] — nonzero iff ANY
  //                     slot could win switch allocation this cycle.
  //   va_blocked_[d]    Idle slots whose VA attempt stalled because output
  //                     d had no free downstream VC; they are excluded
  //                     from VA retries until d frees one (a retry before
  //                     that is a guaranteed no-op, so skipping it cannot
  //                     change any allocation outcome).
  //   pending_rotations_ VA rotation advances owed by cycles the blocked
  //                     fast path skipped; credited to va_round_robin_ on
  //                     the next real step so the arbitration schedule the
  //                     golden tests pin is exactly preserved.
  std::uint64_t credited_union_ = 0;
  std::array<std::uint64_t, kNumPorts> va_blocked_{};
  std::uint64_t va_blocked_union_ = 0;
  std::uint64_t pending_rotations_ = 0;

  // Out-of-line arenas (see file comment). vc_storage_ holds the
  // kNumPorts * vcs_per_port VirtualChannel records the input ports' spans
  // point into; slot_storage_ holds each VC's flit slots (vc_depth rounded
  // up to a power of two for masked ring indexing). Sized once in the
  // constructor, never resized — every span and FlitFifo binding stays
  // valid for the router's lifetime, across moves.
  std::vector<VirtualChannel> vc_storage_;
  std::vector<Flit> slot_storage_;
};

}  // namespace dl2f::noc
