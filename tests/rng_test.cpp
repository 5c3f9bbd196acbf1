#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <limits>
#include <random>
#include <utility>
#include <vector>

namespace dl2f {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.uniform() == b.uniform()) ? 1 : 0;
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliRateApproximation) {
  Rng rng(11);
  int hits = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.3, 0.02);
}

TEST(Rng, BernoulliDegenerate) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  double sum = 0, sq = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    const double v = rng.normal(2.0, 3.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / kTrials;
  const double var = sq / kTrials - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

/// A 64-bit "engine" that returns one fixed word: feeds a chosen x through
/// the standard library's own canonical mapping.
struct FixedWord {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return std::numeric_limits<result_type>::max(); }
  result_type operator()() const { return x; }
  result_type x;
};

double std_canonical(std::uint64_t x) {
  FixedWord engine{x};
  return std::generate_canonical<double, std::numeric_limits<double>::digits>(engine);
}

TEST(Rng, CanonicalDoubleMatchesStdGenerateCanonicalAtRoundingEdges) {
  // Ties round to even: near 2^63 doubles are 2^11 apart, so +1024 is a
  // tie that stays at 2^63 and +1025 rounds up. Near 2^64 the spacing is
  // still 2^11, and everything from 2^64 - 1024 up rounds to 2^64, i.e. 1,
  // which the clamp turns into the largest double below 1.
  constexpr std::uint64_t k63 = std::uint64_t{1} << 63;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::array<std::uint64_t, 12> edges{0,
                                            1,
                                            (std::uint64_t{1} << 53) - 1,
                                            (std::uint64_t{1} << 53) + 1,
                                            k63 - 1,
                                            k63,
                                            k63 + 1024,
                                            k63 + 1025,
                                            kMax - 2047,
                                            kMax - 1023,
                                            kMax - 1022,
                                            kMax};
  for (const std::uint64_t x : edges) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(canonical_double(x)),
              std::bit_cast<std::uint64_t>(std_canonical(x)))
        << "x = " << x;
  }
  const double below_one = std::nextafter(1.0, 0.0);
  EXPECT_EQ(canonical_double(0), 0.0);
  EXPECT_EQ(canonical_double(k63 + 1024), 0.5);
  EXPECT_EQ(canonical_double(k63 + 1025), 0.5 + 0x1p-53);
  EXPECT_EQ(canonical_double(kMax - 2047), 1.0 - 0x1p-53);
  EXPECT_EQ(canonical_double(kMax - 1023), below_one);
  EXPECT_EQ(canonical_double(kMax), below_one);
}

TEST(Rng, UniformAndBernoulliMatchStdDistributionDrawForDraw) {
  // Rng::uniform/bernoulli bypass std::uniform_real_distribution for speed
  // but must reproduce it exactly: every simulation stream depends on it.
  constexpr int kDraws = 1'000'000;
  {
    Rng rng(0x5eed);
    std::mt19937_64 twin(0x5eed);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    int mismatches = 0;
    for (int i = 0; i < kDraws; ++i) {
      mismatches += std::bit_cast<std::uint64_t>(rng.uniform()) !=
                    std::bit_cast<std::uint64_t>(unit(twin));
    }
    EXPECT_EQ(mismatches, 0);
    EXPECT_EQ(rng.engine()(), twin()) << "uniform() must draw exactly one engine word";
  }
  const std::array<double, 9> probabilities{0.0,
                                            1e-300,
                                            0.002,
                                            0.08,
                                            0.5,
                                            1.0 - 0x1p-53,
                                            1.0,
                                            1.5,
                                            std::numeric_limits<double>::quiet_NaN()};
  for (const double p : probabilities) {
    Rng rng(0xb0b);
    std::mt19937_64 twin(0xb0b);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    int mismatches = 0;
    for (int i = 0; i < kDraws; ++i) mismatches += rng.bernoulli(p) != (unit(twin) < p);
    EXPECT_EQ(mismatches, 0) << "p = " << p;
    EXPECT_EQ(rng.engine()(), twin()) << "bernoulli() must draw exactly one engine word";
  }
}

TEST(Mt19937_64, MatchesStdEngineWordForWordAcrossManyRefills) {
  // 3 * 10^6 words per seed is ~9600 refills, so every position of all
  // three refill loops (including the wrap to word 0) is checked many
  // times, with low bits of both parities.
  constexpr int kWords = 3'000'000;
  const std::array<std::uint64_t, 5> seeds{0, 1, 5489, std::numeric_limits<std::uint64_t>::max(),
                                           mix64(1)};
  for (const std::uint64_t seed : seeds) {
    Mt19937_64 engine(seed);
    std::mt19937_64 twin(seed);
    int mismatches = 0;
    for (int i = 0; i < kWords; ++i) mismatches += engine() != twin();
    EXPECT_EQ(mismatches, 0) << "seed = " << seed;
  }
}

TEST(Mt19937_64, StdAlgorithmsConsumeTheSameWordsAsWithStdEngine) {
  static_assert(std::uniform_random_bit_generator<Mt19937_64>);
  static_assert(Mt19937_64::min() == std::mt19937_64::min());
  static_assert(Mt19937_64::max() == std::mt19937_64::max());
  static_assert(sizeof(Mt19937_64) == sizeof(std::mt19937_64));
  Rng rng(0xface);
  std::mt19937_64 twin(0xface);

  std::vector<int> a(1000), b(1000);
  for (int i = 0; i < 1000; ++i) a[static_cast<std::size_t>(i)] = b[static_cast<std::size_t>(i)] = i;
  for (int round = 0; round < 20; ++round) {
    std::shuffle(a.begin(), a.end(), rng.engine());
    std::shuffle(b.begin(), b.end(), twin);
    ASSERT_EQ(a, b) << "round " << round;
  }

  // Small ranges, a range that needs rejection, and the full 64-bit range.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::array<std::pair<std::int64_t, std::int64_t>, 5> ranges{
      {{0, 3}, {-7, 7}, {0, (std::int64_t{1} << 62) + 12345}, {kMin, kMax}, {5, 5}}};
  for (const auto& [lo, hi] : ranges) {
    std::uniform_int_distribution<std::int64_t> dist(lo, hi);
    for (int i = 0; i < 20000; ++i) ASSERT_EQ(rng.uniform_int(lo, hi), dist(twin)) << lo << ".." << hi;
  }

  for (int i = 0; i < 20000; ++i) {
    std::normal_distribution<double> dist(2.0, 3.0);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(rng.normal(2.0, 3.0)),
              std::bit_cast<std::uint64_t>(dist(twin)));
  }
  EXPECT_EQ(rng.engine()(), twin());

  // A 10-deep fork chain: each child is seeded from one parent word.
  Rng child = rng.fork();
  std::mt19937_64 child_twin(twin());
  for (int depth = 1; depth < 10; ++depth) {
    for (int i = 0; i < 1000; ++i) ASSERT_EQ(child.engine()(), child_twin()) << "depth " << depth;
    child = child.fork();
    child_twin = std::mt19937_64(child_twin());
  }
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(child.engine()(), child_twin());
}

TEST(Chance, ThresholdAgreesWithCanonicalComparisonForEveryProbeWord) {
  constexpr std::uint64_t kLast = std::numeric_limits<std::uint64_t>::max();
  const std::array<double, 15> probabilities{-1.0,
                                             0.0,
                                             1e-300,
                                             0x1p-65,
                                             0x1p-64,
                                             3 * 0x1p-64,
                                             0.002,
                                             0.01,
                                             0.08,
                                             0.5,
                                             1.0 - 0x1p-53,
                                             1.0 - 0x1p-54,
                                             1.0,
                                             1.5,
                                             std::numeric_limits<double>::quiet_NaN()};
  for (const double p : probabilities) {
    const Chance c(p);
    std::vector<std::uint64_t> probes{0, kLast, c.below};
    if (c.below > 0) probes.push_back(c.below - 1);
    if (c.below < kLast) probes.push_back(c.below + 1);
    Mt19937_64 words(0xc0ffee);
    for (int i = 0; i < 1'000'000; ++i) probes.push_back(words());
    int mismatches = 0;
    for (const std::uint64_t x : probes) mismatches += c.admits(x) != (canonical_double(x) < p);
    EXPECT_EQ(mismatches, 0) << "p = " << p;

    constexpr int kDraws = 200'000;
    Rng rng(0xb0b), twin(0xb0b);
    int disagreements = 0;
    for (int i = 0; i < kDraws; ++i) disagreements += rng.bernoulli(c) != twin.bernoulli(p);
    EXPECT_EQ(disagreements, 0) << "p = " << p;
    EXPECT_EQ(rng.engine()(), twin.engine()()) << "bernoulli(Chance) must draw one word, p = " << p;
  }
  EXPECT_EQ(Chance(0.0).below, 0U);
  EXPECT_FALSE(Chance(std::numeric_limits<double>::quiet_NaN()).always);
  EXPECT_EQ(Chance(std::numeric_limits<double>::quiet_NaN()).below, 0U);
  EXPECT_TRUE(Chance(1.0).always);
  EXPECT_FALSE(Chance(1.0 - 0x1p-53).always);
  // 2^-64 is the canonical value of word 1 (exact), so only word 0 is below it.
  EXPECT_EQ(Chance(0x1p-64).below, 1U);
  // Just below 2^63 doubles are 2^10 apart and ties round to even, so
  // every word from 2^63 - 512 up rounds to 2^63, i.e. to 0.5.
  EXPECT_EQ(Chance(0.5).below, (std::uint64_t{1} << 63) - 512);
}

TEST(Rng, ForkIsIndependentButDeterministic) {
  Rng a(99), b(99);
  Rng fa = a.fork(), fb = b.fork();
  for (int i = 0; i < 50; ++i) EXPECT_DOUBLE_EQ(fa.uniform(), fb.uniform());
}

}  // namespace
}  // namespace dl2f
