// Deterministic random number generation.
//
// Every stochastic component in the repo (traffic patterns, attacker
// placement, weight init, dataset shuffling) draws from an explicitly
// seeded Rng so that simulations, training runs and benchmark tables are
// reproducible bit-for-bit across runs.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <random>
#include <string_view>

namespace dl2f {

/// splitmix64 finalizer — derives decorrelated sub-seeds from one seed
/// (scenario legs, campaign grid coordinates). Determinism contracts
/// (byte-identical campaigns) depend on every caller sharing this exact
/// bit-mixing, so it lives here rather than per-translation-unit.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// FNV-1a over a string — turns grid-axis names (scenario family, workload)
/// into seed material. Shared for the same reason as mix64: the campaign
/// runner and the adversarial sequence-dataset generator must derive the
/// SAME per-cell seed from the same (family, workload) coordinates.
[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// One 64-bit engine word mapped to a double in [0, 1), bit-for-bit what
/// libstdc++'s std::generate_canonical<double, 53> (and so
/// std::uniform_real_distribution<double>(0, 1)) returns for a 64-bit
/// engine: x rounded once to double (nearest-even), scaled by 2^-64, and
/// clamped to nextafter(1, 0) when that rounding reaches 1.
///
/// The library's uint64 -> double conversion branches on the sign bit,
/// which mispredicts on about half of all random words. Here x is split
/// into two 32-bit halves that convert exactly as signed integers; their
/// sum hi * 2^32 + lo is the one rounding of x, and the clamp is a min.
/// tests/rng_test.cpp pins the equality against the installed standard
/// library, so a library that changes its reference fails that test.
[[nodiscard]] constexpr double canonical_double(std::uint64_t x) noexcept {
  const double hi = static_cast<double>(static_cast<std::int64_t>(x >> 32));
  const double lo = static_cast<double>(static_cast<std::int64_t>(x & 0xffffffffULL));
  return std::min((hi * 0x1p32 + lo) * 0x1p-64, 0x1.fffffffffffffp-1);
}

/// Thin wrapper over a 64-bit Mersenne Twister with convenience draws.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [0, 1): one engine word per call, the same value
  /// std::uniform_real_distribution<double>(0, 1) would return (see
  /// canonical_double), so every stream is unchanged.
  [[nodiscard]] double uniform() { return canonical_double(engine_()); }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    assert(lo <= hi);
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Bernoulli trial with success probability p: `uniform() < p`, so it
  /// draws exactly one engine word and agrees with the std distribution
  /// draw for every p (p <= 0 or NaN never succeeds, p >= 1 always does).
  /// It deliberately avoids the std distribution: Bernoulli draws feed
  /// every traffic source every cycle, and the library's branchy
  /// uint64 -> double conversion was the largest single cost there.
  [[nodiscard]] bool bernoulli(double p) { return uniform() < p; }

  /// Normal draw with the given mean / standard deviation.
  [[nodiscard]] double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Derive an independent child stream (e.g. one per node) from this one.
  [[nodiscard]] Rng fork() { return Rng(engine_()); }

  /// Access the underlying engine for std::shuffle and distributions.
  [[nodiscard]] std::mt19937_64& engine() noexcept { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace dl2f
