// 32-byte-aligned allocation for the SIMD kernel operands.
//
// The explicit AVX2 kernels (nn/gemm_avx2.cpp) use unaligned loads for
// correctness, so alignment is purely a performance contract: a 32-byte
// base guarantees a whole ymm row never splits across cache lines when
// the row stride is a multiple of 8 floats, and adjacent arena buffers
// never share a line. Tensor4 batches and the InferenceContext scratch
// arenas allocate through aligned_vector so the guarantee holds for
// every kernel operand the batched paths touch; Debug builds assert it
// (nn/inference.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace dl2f::common {

inline constexpr std::size_t kSimdAlignment = 32;

/// True when `p` sits on a kSimdAlignment boundary (Debug assertions).
[[nodiscard]] inline bool is_simd_aligned(const void* p) noexcept {
  return (reinterpret_cast<std::uintptr_t>(p) % kSimdAlignment) == 0;
}

/// Minimal std::allocator drop-in that over-aligns every allocation to
/// kSimdAlignment via the C++17 aligned operator new. Stateless, so all
/// instances compare equal and vectors move/swap freely.
template <typename T>
class AlignedAllocator {
 public:
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{kSimdAlignment}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kSimdAlignment});
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
};

/// The arena vector type: std::vector semantics, 32-byte-aligned data().
template <typename T>
using aligned_vector = std::vector<T, AlignedAllocator<T>>;

}  // namespace dl2f::common
