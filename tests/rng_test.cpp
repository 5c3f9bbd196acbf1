#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>

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

TEST(Rng, ForkIsIndependentButDeterministic) {
  Rng a(99), b(99);
  Rng fa = a.fork(), fb = b.fork();
  for (int i = 0; i < 50; ++i) EXPECT_DOUBLE_EQ(fa.uniform(), fb.uniform());
}

}  // namespace
}  // namespace dl2f
