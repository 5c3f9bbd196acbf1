// Packets and flits.
//
// The simulator models wormhole switching: each packet is serialized into a
// head flit (carries routing state), zero or more body flits, and a tail
// flit (releases the virtual channel). Single-flit packets use HeadTail.
//
// Flit is deliberately packed to 32 bytes (ISSUE 9): per-cycle stepping cost
// on large meshes is dominated by memory traffic through the VC buffers, so
// halving the flit footprint halves the bytes every link crossing moves.
// Node ids ride in 16 bits — Mesh enforces node_count <= 32767 (a 181x181
// mesh; the roadmap's 64x64 target is 4096 nodes) — while packet ids and
// cycle timestamps keep their full 64-bit range: latency accumulators feed
// bitwise-compared golden sums and must never wrap.
#pragma once

#include <cassert>
#include <cstdint>

#include "common/geometry.hpp"

namespace dl2f::noc {

/// Simulation time in cycles.
using Cycle = std::int64_t;

/// Unique packet identifier (monotonic per simulation).
using PacketId = std::int64_t;

enum class FlitType : std::uint8_t { Head, Body, Tail, HeadTail };

[[nodiscard]] constexpr bool is_head(FlitType t) noexcept {
  return t == FlitType::Head || t == FlitType::HeadTail;
}
[[nodiscard]] constexpr bool is_tail(FlitType t) noexcept {
  return t == FlitType::Tail || t == FlitType::HeadTail;
}

struct Flit {
  PacketId packet = -1;
  Cycle created = 0;             ///< cycle the packet was created at the source
  Cycle injected = 0;            ///< cycle the head left the source queue into the NoC
  std::int16_t src = -1;         ///< source node (narrow on purpose; see file comment)
  std::int16_t dst = -1;         ///< destination node
  std::int16_t seq = 0;          ///< position within the packet (0 = head)
  FlitType type = FlitType::HeadTail;
  bool malicious = false;        ///< true for FDoS flooding packets (ground truth only)
};
static_assert(sizeof(Flit) == 32, "Flit is sized for VC-buffer bandwidth; see file comment");

/// A flit FIFO over externally owned slot storage — the virtual-channel
/// buffer. A power-of-two ring whose slots live in the router's
/// per-mesh-configured slot arena (sized by the *configured* vc_depth, not
/// a compile-time maximum), so a VC's hot metadata is 16 bytes and a
/// router's whole control state stays L2-resident on large meshes. The
/// bound capacity is a power of two >= the usable depth; the usable depth
/// itself is enforced by credit flow control (and the assert here as the
/// last line of defense).
class FlitFifo {
 public:
  /// Slot-count cap; RouterConfig::vc_depth may not exceed this.
  static constexpr std::int32_t kMaxCapacity = 16;

  /// Attach `capacity_pow2` slots at `slots`. Capacity must be a power of
  /// two in [1, kMaxCapacity].
  void bind(Flit* slots, std::int32_t capacity_pow2) noexcept {
    assert(slots != nullptr);
    assert(capacity_pow2 >= 1 && capacity_pow2 <= kMaxCapacity);
    assert((capacity_pow2 & (capacity_pow2 - 1)) == 0);
    slots_ = slots;
    mask_ = static_cast<std::uint16_t>(capacity_pow2 - 1);
    head_ = 0;
    count_ = 0;
  }

  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::int32_t size() const noexcept { return count_; }

  [[nodiscard]] Flit& front() noexcept {
    assert(count_ > 0);
    return slots_[head_];
  }
  [[nodiscard]] const Flit& front() const noexcept {
    assert(count_ > 0);
    return slots_[head_];
  }

  void push_back(const Flit& f) noexcept {
    assert(count_ <= mask_);
    slots_[(head_ + count_) & mask_] = f;
    ++count_;
  }
  void pop_front() noexcept {
    assert(count_ > 0);
    head_ = (head_ + 1) & mask_;
    --count_;
  }
  void clear() noexcept {
    head_ = 0;
    count_ = 0;
  }

 private:
  Flit* slots_ = nullptr;
  std::uint16_t head_ = 0;       ///< index of the oldest flit
  std::uint16_t count_ = 0;      ///< buffered flits
  std::uint16_t mask_ = 0;       ///< bound capacity - 1
};

/// A packet waiting in (or being drained from) a node's source queue.
struct PendingPacket {
  PacketId id = -1;
  NodeId src = -1;
  NodeId dst = -1;
  std::int32_t length_flits = 1;
  Cycle created = 0;
  bool malicious = false;
  std::int32_t flits_sent = 0;   ///< serialization progress into the local port
};

}  // namespace dl2f::noc
