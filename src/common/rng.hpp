// Deterministic random number generation.
//
// Every stochastic component in the repo (traffic patterns, attacker
// placement, weight init, dataset shuffling) draws from an explicitly
// seeded Rng so that simulations, training runs and benchmark tables are
// reproducible bit-for-bit across runs.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
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

/// MT19937-64 (Matsumoto & Nishimura, ACM TOMACS 1998; the 64-bit
/// parameters of Nishimura, 2000), word for word the sequence
/// std::mt19937_64 produces for the same seed: the same seeding recurrence,
/// the same three refill loops over the 312-word state and the same
/// tempering on read.
///
/// It is not std::mt19937_64 because libstdc++ writes the twist's
/// conditional term as `(y & 1) ? a : 0`, which gcc -O3 compiles into a
/// test-and-jump on every state word. The low bit is random, so that
/// branch mispredicts on about half of all words: drawing 5 * 10^7 words
/// on a 4-core AVX2 Xeon VM (gcc 12, -O3) the library engine costs
/// 7.2-8.7 ns/word, this one 1.2-1.8 ns/word. Here the term is the mask
/// `(0 - (next & 1)) & a`. The state stays at 312 words plus a
/// read index (no tempered-output buffer), the same footprint as the
/// library engine.
///
/// It is a UniformRandomBitGenerator with the library engine's result_type,
/// min() and max(), so std::shuffle and the std distributions take the same
/// code path and consume the same words as they do with std::mt19937_64.
/// tests/rng_test.cpp pins the parity against the installed library.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  explicit Mt19937_64(result_type seed) noexcept {
    state_[0] = seed;
    for (std::size_t i = 1; i < kStateWords; ++i) {
      const result_type prev = state_[i - 1];
      state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
    }
  }

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    if (pos_ >= kStateWords) refill();
    result_type z = state_[pos_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  static constexpr std::size_t kStateWords = 312;
  static constexpr std::size_t kShift = 156;  // the recurrence's middle offset m
  static constexpr result_type kUpperMask = ~result_type{0} << 31;
  static constexpr result_type kLowerMask = ~kUpperMask;
  static constexpr result_type kMatrixA = 0xb5026f5aa96619e9ULL;

  /// One twist step: the upper 33 bits of `cur` joined with the lower 31
  /// of `next`, shifted right once and xored with `mid`, plus kMatrixA
  /// when the joined word is odd. Its low bit is `next`'s.
  [[nodiscard]] static constexpr result_type twist(result_type cur, result_type next,
                                                   result_type mid) noexcept {
    const result_type y = (cur & kUpperMask) | (next & kLowerMask);
    return mid ^ (y >> 1) ^ ((result_type{0} - (next & 1)) & kMatrixA);
  }

  /// Regenerate all 312 words in the library's order: the first loop reads
  /// words the refill has not reached yet, the second reads the first
  /// loop's fresh words, and the last word wraps around to word 0. Kept
  /// out of line so the per-word path that callers inline stays small.
  [[gnu::noinline]] void refill() noexcept {
    std::size_t k = 0;
    for (; k < kStateWords - kShift; ++k) {
      state_[k] = twist(state_[k], state_[k + 1], state_[k + kShift]);
    }
    for (; k < kStateWords - 1; ++k) {
      state_[k] = twist(state_[k], state_[k + 1], state_[k - (kStateWords - kShift)]);
    }
    state_[kStateWords - 1] = twist(state_[kStateWords - 1], state_[0], state_[kShift - 1]);
    pos_ = 0;
  }

  std::array<result_type, kStateWords> state_{};
  std::size_t pos_ = kStateWords;
};

/// A Bernoulli probability resolved once against the engine's word space.
///
/// canonical_double is monotone in its word, so `canonical_double(x) < p`
/// holds exactly for the words x < `below`, unless every word passes
/// (p > the largest canonical double, i.e. p >= 1), which sets `always`.
/// p <= 0 and NaN pass no word (below == 0). `below` is the first word that
/// fails, found by binary search, so Rng::bernoulli(Chance(p)) returns what
/// Rng::bernoulli(p) returns for every word without converting any word to
/// a double. Build it once where p is fixed for the generator's lifetime.
struct Chance {
  constexpr explicit Chance(double p) noexcept {
    constexpr std::uint64_t kLast = std::numeric_limits<std::uint64_t>::max();
    if (canonical_double(kLast) < p) {
      always = true;
      below = kLast;
      return;
    }
    std::uint64_t lo = 0;
    std::uint64_t hi = kLast;  // canonical_double(hi) >= p, or p is NaN
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (canonical_double(mid) < p) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    below = lo;
  }

  /// Whether the trial that draws word x succeeds.
  [[nodiscard]] constexpr bool admits(std::uint64_t x) const noexcept {
    return (x < below) | always;
  }

  std::uint64_t below = 0;  ///< words below this succeed
  bool always = false;      ///< every word succeeds (p >= 1)
};

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
  /// Use it where p can change between draws; a fixed p takes a Chance.
  [[nodiscard]] bool bernoulli(double p) { return uniform() < p; }

  /// The same trial against a precomputed threshold: one engine word per
  /// call (drawn even when `c.always` is set), and for every word the same
  /// outcome as bernoulli(p) for the p that built `c`.
  [[nodiscard]] bool bernoulli(const Chance& c) noexcept {
    return c.admits(engine_());
  }

  /// Normal draw with the given mean / standard deviation.
  [[nodiscard]] double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Derive an independent child stream (e.g. one per node) from this one.
  [[nodiscard]] Rng fork() { return Rng(engine_()); }

  /// Access the underlying engine for std::shuffle and distributions.
  [[nodiscard]] Mt19937_64& engine() noexcept { return engine_; }

 private:
  Mt19937_64 engine_;
};

}  // namespace dl2f
