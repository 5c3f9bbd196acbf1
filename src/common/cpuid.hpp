// Runtime SIMD capability detection and the one process-wide dispatch
// decision the NN kernel layer (nn/gemm.hpp) keys off.
//
// The contract that makes a *runtime* choice safe in a bitwise-
// deterministic codebase: every kernel variant behind the dispatch is
// bitwise-identical to the scalar reference (lane-parallel axpy form,
// FMA contraction disabled — see the ACCUM-ORDER block in nn/gemm.hpp),
// so the selected level changes throughput only, never a single output
// bit. The level is resolved once, on first query, from
//
//   min( what the CPU supports,
//        what the DL2F_GEMM_BACKEND environment variable requests,
//        what force_simd_level() was last told )
//
// and cached; benches report it (the `gemm_backend` JSON key) so every
// committed number names the code path that produced it.
#pragma once

#include <cstdint>
#include <string_view>

namespace dl2f::common {

/// The kernel tiers nn/gemm dispatches between. Order is capability
/// order: every level's kernels run on hardware of any higher level.
enum class SimdLevel : std::uint8_t {
  Scalar = 0,  ///< portable C++ (the golden reference; auto-vectorized)
  Avx2 = 1,    ///< 8-lane explicit kernels
};

/// Highest level this CPU can execute, ignoring overrides. Non-x86
/// builds report Scalar.
[[nodiscard]] SimdLevel detected_simd_level() noexcept;

/// The level the kernel dispatch actually uses: detected, clamped by the
/// environment (DL2F_GEMM_BACKEND=scalar|avx2 requests a tier; any
/// other value exits the process with a message on stderr) and by
/// force_simd_level(). Resolved once and cached — cheap enough for
/// per-call reads.
[[nodiscard]] SimdLevel active_simd_level() noexcept;

/// Programmatic override (bench --gemm-backend, parity tests): request a
/// level for all subsequent active_simd_level() reads. Requests above
/// detected_simd_level() clamp down; returns the level that is now
/// active. Not thread-safe against concurrent kernel calls — call it
/// during setup, before scoring threads start.
SimdLevel force_simd_level(SimdLevel level) noexcept;

/// Parse "scalar"/"avx2" (case-sensitive, the spelling the env
/// var and bench flags use). Returns false and leaves `out` untouched on
/// any other input.
[[nodiscard]] bool parse_simd_level(std::string_view name, SimdLevel& out) noexcept;

/// Stable lower-case name for reports and JSON artifacts.
[[nodiscard]] const char* simd_level_name(SimdLevel level) noexcept;

}  // namespace dl2f::common
