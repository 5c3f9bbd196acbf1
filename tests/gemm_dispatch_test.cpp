// Bitwise-parity sweep of the AVX2 kernel tier against the scalar
// reference (the dispatch contract in nn/gemm.hpp): when the CPU can run
// it, the AVX2 tier must produce byte-identical output on every kernel,
// including every remainder-lane shape — the M, N, K sweep below hits
// below-one-vector, exactly-one-vector, vector+tail and
// multi-vector+tail cases of the 8-lane kernels. Also pins how the
// dispatch resolves its tier (force_simd_level, DL2F_GEMM_BACKEND).
#include "nn/gemm.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/cpuid.hpp"
#include "common/rng.hpp"

namespace dl2f::nn::gemm {
namespace {

using common::SimdLevel;

const std::int32_t kSweep[] = {1, 3, 7, 8, 9, 31, 33};

std::vector<SimdLevel> available_tiers() {
  std::vector<SimdLevel> tiers;
  if (common::detected_simd_level() >= SimdLevel::Avx2) tiers.push_back(SimdLevel::Avx2);
  return tiers;
}

std::vector<float> random_block(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.uniform(-2.0, 2.0));
  return v;
}

#define EXPECT_BITWISE_EQ(a, b)                                                       \
  EXPECT_EQ(0, std::memcmp((a).data(), (b).data(), (a).size() * sizeof((a)[0])))      \
      << "tier " << common::simd_level_name(tier) << " diverges from scalar"

TEST(GemmDispatch, GemmBiasBitwiseParityAcrossTiers) {
  const GemmKernels& ref = kernels_for(SimdLevel::Scalar);
  Rng rng(41);
  for (SimdLevel tier : available_tiers()) {
    const GemmKernels& kt = kernels_for(tier);
    for (std::int32_t m : kSweep) {
      for (std::int32_t n : kSweep) {
        for (std::int32_t k : kSweep) {
          const auto a = random_block(static_cast<std::size_t>(m * k), rng);
          const auto b = random_block(static_cast<std::size_t>(k * n), rng);
          const auto bias = random_block(static_cast<std::size_t>(m), rng);
          std::vector<float> c_ref(static_cast<std::size_t>(m * n), -1.0F);
          std::vector<float> c_simd(static_cast<std::size_t>(m * n), +1.0F);
          ref.gemm_bias(m, n, k, a.data(), k, b.data(), n, bias.data(), c_ref.data(), n);
          kt.gemm_bias(m, n, k, a.data(), k, b.data(), n, bias.data(), c_simd.data(), n);
          EXPECT_BITWISE_EQ(c_ref, c_simd) << " at m=" << m << " n=" << n << " k=" << k;
        }
      }
    }
  }
}

TEST(GemmDispatch, ConvForwardValidBitwiseParityAcrossTiers) {
  // Plane widths crossing the 8-lane boundary (ow = iw - k + 1),
  // channel counts exercising the 4/2/1 register-block groups.
  const GemmKernels& ref = kernels_for(SimdLevel::Scalar);
  Rng rng(42);
  for (SimdLevel tier : available_tiers()) {
    const GemmKernels& kt = kernels_for(tier);
    for (std::int32_t iw : {3, 5, 8, 10, 15, 16, 33}) {
      for (std::int32_t out_c : {1, 2, 3, 4, 5, 8}) {
        const std::int32_t in_c = 3, k = 3, ih = 9;
        if (iw < k) continue;
        const std::int32_t oh = ih - k + 1, ow = iw - k + 1;
        const auto src = random_block(static_cast<std::size_t>(in_c * ih * iw), rng);
        const auto w = random_block(static_cast<std::size_t>(out_c * in_c * k * k), rng);
        const auto bias = random_block(static_cast<std::size_t>(out_c), rng);
        std::vector<float> d_ref(static_cast<std::size_t>(out_c * oh * ow), -1.0F);
        std::vector<float> d_simd(d_ref.size(), +1.0F);
        ref.conv_forward_valid(src.data(), in_c, ih, iw, k, out_c, w.data(), bias.data(),
                               d_ref.data());
        kt.conv_forward_valid(src.data(), in_c, ih, iw, k, out_c, w.data(), bias.data(),
                              d_simd.data());
        EXPECT_BITWISE_EQ(d_ref, d_simd) << " at iw=" << iw << " out_c=" << out_c;
      }
    }
  }
}

TEST(GemmDispatch, SkipzeroAndGradInputBitwiseParityAcrossTiers) {
  const GemmKernels& ref = kernels_for(SimdLevel::Scalar);
  Rng rng(43);
  for (SimdLevel tier : available_tiers()) {
    const GemmKernels& kt = kernels_for(tier);
    for (std::int32_t n : kSweep) {
      const std::int32_t m = 5, k = 9;
      auto a = random_block(static_cast<std::size_t>(m * k), rng);
      for (std::size_t i = 0; i < a.size(); i += 3) a[i] = 0.0F;  // exercise the skip
      const auto b = random_block(static_cast<std::size_t>(k * n), rng);
      std::vector<float> c_ref(static_cast<std::size_t>(m * n), 0.5F);
      std::vector<float> c_simd(c_ref);
      std::vector<float> bias_ref(static_cast<std::size_t>(m), 0.0F);
      std::vector<float> bias_simd(bias_ref);
      ref.gemm_accumulate_skipzero(m, n, k, a.data(), k, b.data(), n, c_ref.data(), n,
                                   bias_ref.data());
      kt.gemm_accumulate_skipzero(m, n, k, a.data(), k, b.data(), n, c_simd.data(), n,
                                  bias_simd.data());
      EXPECT_BITWISE_EQ(c_ref, c_simd) << " at n=" << n;
      EXPECT_BITWISE_EQ(bias_ref, bias_simd);
    }

    for (std::int32_t iw : {4, 9, 15, 33}) {
      const std::int32_t in_c = 2, ih = 8, k = 3, pad = 1, out_c = 3;
      const std::int32_t oh = ih + 2 * pad - k + 1, ow = iw + 2 * pad - k + 1;
      const auto g = random_block(static_cast<std::size_t>(out_c * oh * ow), rng);
      const auto w = random_block(static_cast<std::size_t>(out_c * in_c * k * k), rng);
      std::vector<float> gi_ref(static_cast<std::size_t>(in_c * ih * iw), -1.0F);
      std::vector<float> gi_simd(gi_ref.size(), +1.0F);
      ref.conv_grad_input(g.data(), w.data(), in_c, ih, iw, k, pad, out_c, gi_ref.data());
      kt.conv_grad_input(g.data(), w.data(), in_c, ih, iw, k, pad, out_c, gi_simd.data());
      EXPECT_BITWISE_EQ(gi_ref, gi_simd) << " at iw=" << iw;
    }
  }
}

TEST(GemmDispatch, ForceScalarPinsActiveTable) {
  const SimdLevel before = common::active_simd_level();
  EXPECT_EQ(common::force_simd_level(SimdLevel::Scalar), SimdLevel::Scalar);
  EXPECT_EQ(common::active_simd_level(), SimdLevel::Scalar);
  EXPECT_EQ(&active_kernels(), &kernels_for(SimdLevel::Scalar));
  // Requests above the detected level clamp down instead of faulting.
  const SimdLevel clamped = common::force_simd_level(SimdLevel::Avx2);
  EXPECT_LE(clamped, common::detected_simd_level());
  EXPECT_EQ(&active_kernels(), &kernels_for(clamped));
  common::force_simd_level(before);
}

TEST(GemmDispatchDeathTest, UnknownBackendEnvExitsNamingTheTiers) {
  // The tier resolves once per process, so each case must run in a fresh
  // re-executed child: the threadsafe style gives exactly that.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // Names are case-sensitive; retired and unknown tiers name nothing.
  for (const char* bad : {"SSE2", "AVX2", "avx512", "fastest"}) {
    EXPECT_EXIT(
        {
          setenv("DL2F_GEMM_BACKEND", bad, 1);
          static_cast<void>(common::active_simd_level());
        },
        testing::ExitedWithCode(EXIT_FAILURE), "DL2F_GEMM_BACKEND.*scalar.avx2")
        << "DL2F_GEMM_BACKEND=" << bad;
  }
}

}  // namespace
}  // namespace dl2f::nn::gemm
