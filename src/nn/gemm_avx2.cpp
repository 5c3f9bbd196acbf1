// The 8-lane (AVX2) kernel tier.
//
// ACCUM-ORDER: every explicit kernel below is lane-parallel over output
// elements only — lane j of a ymm accumulator owns output column j0+j
// for the whole k loop, advancing one separate multiply and one separate
// add per step. No FMA intrinsics are used and the TU compiles with
// -ffp-contract=off, so mul and add stay distinct roundings exactly as
// in the scalar reference; register blocking only batches chains that
// belong to different output elements. Ragged edges use maskload /
// maskstore (never reading past the buffer) or scalar chains; either
// way each element's reduction order is the reference's, so the tier is
// bitwise-identical to scalar. tests/gemm_dispatch_test.cpp sweeps
// remainder shapes to pin that. Entries without a profitable explicit
// form reuse the shared portable bodies (gemm_kernels_impl.hpp),
// recompiled at this TU's arch level.
#include "nn/gemm.hpp"

#include "nn/gemm_kernels_impl.hpp"

#include <type_traits>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace dl2f::nn::gemm {
namespace {

#if defined(__x86_64__) || defined(__i386__)

/// Lane mask with the low r (1..8) int32 lanes active. maskload with an
/// inactive lane performs no memory access for it, which is what makes
/// the ragged tails below safe for ASan and page boundaries alike.
inline __m256i tail_mask(std::int32_t r) {
  alignas(32) static constexpr std::int32_t kMaskSrc[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                                            0,  0,  0,  0,  0,  0,  0,  0};
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(kMaskSrc + (8 - r)));
}

/// c[0..n) += s * b[0..n), 8 lanes at a time with a masked tail.
inline void avx2_axpy(std::int32_t n, float s, const float* __restrict b, float* __restrict c) {
  const __m256 vs = _mm256_set1_ps(s);
  std::int32_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 prod = _mm256_mul_ps(vs, _mm256_loadu_ps(b + j));
    _mm256_storeu_ps(c + j, _mm256_add_ps(_mm256_loadu_ps(c + j), prod));
  }
  const std::int32_t r = n - j;
  if (r > 0) {
    const __m256i mask = tail_mask(r);
    const __m256 prod = _mm256_mul_ps(vs, _mm256_maskload_ps(b + j, mask));
    _mm256_maskstore_ps(c + j, mask, _mm256_add_ps(_mm256_maskload_ps(c + j, mask), prod));
  }
}

void avx2_gemm_bias(std::int32_t m, std::int32_t n, std::int32_t k, const float* a,
                    std::int32_t lda, const float* b, std::int32_t ldb, const float* bias, float* c,
                    std::int32_t ldc) {
  // Register blocking: 4 rows x 16 columns of C live in 8 ymm
  // accumulators across the whole k loop. Each accumulator lane is one
  // output element's chain — holding it in a register instead of
  // store/reload between k steps cannot change a bit.
  const auto row = [](auto* base, std::int32_t i, std::int32_t ld) {
    return base + static_cast<std::size_t>(i) * static_cast<std::size_t>(ld);
  };
  std::int32_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const float* a0 = row(a, i, lda);
    const float* a1 = row(a, i + 1, lda);
    const float* a2 = row(a, i + 2, lda);
    const float* a3 = row(a, i + 3, lda);
    float* c0 = row(c, i, ldc);
    float* c1 = row(c, i + 1, ldc);
    float* c2 = row(c, i + 2, ldc);
    float* c3 = row(c, i + 3, ldc);
    std::int32_t j = 0;
    for (; j + 16 <= n; j += 16) {
      __m256 acc00 = _mm256_set1_ps(bias[i]), acc01 = acc00;
      __m256 acc10 = _mm256_set1_ps(bias[i + 1]), acc11 = acc10;
      __m256 acc20 = _mm256_set1_ps(bias[i + 2]), acc21 = acc20;
      __m256 acc30 = _mm256_set1_ps(bias[i + 3]), acc31 = acc30;
      const float* bp = b + j;
      for (std::int32_t p = 0; p < k; ++p, bp += ldb) {
        const __m256 vb0 = _mm256_loadu_ps(bp);
        const __m256 vb1 = _mm256_loadu_ps(bp + 8);
        __m256 va = _mm256_set1_ps(a0[p]);
        acc00 = _mm256_add_ps(acc00, _mm256_mul_ps(va, vb0));
        acc01 = _mm256_add_ps(acc01, _mm256_mul_ps(va, vb1));
        va = _mm256_set1_ps(a1[p]);
        acc10 = _mm256_add_ps(acc10, _mm256_mul_ps(va, vb0));
        acc11 = _mm256_add_ps(acc11, _mm256_mul_ps(va, vb1));
        va = _mm256_set1_ps(a2[p]);
        acc20 = _mm256_add_ps(acc20, _mm256_mul_ps(va, vb0));
        acc21 = _mm256_add_ps(acc21, _mm256_mul_ps(va, vb1));
        va = _mm256_set1_ps(a3[p]);
        acc30 = _mm256_add_ps(acc30, _mm256_mul_ps(va, vb0));
        acc31 = _mm256_add_ps(acc31, _mm256_mul_ps(va, vb1));
      }
      _mm256_storeu_ps(c0 + j, acc00);
      _mm256_storeu_ps(c0 + j + 8, acc01);
      _mm256_storeu_ps(c1 + j, acc10);
      _mm256_storeu_ps(c1 + j + 8, acc11);
      _mm256_storeu_ps(c2 + j, acc20);
      _mm256_storeu_ps(c2 + j + 8, acc21);
      _mm256_storeu_ps(c3 + j, acc30);
      _mm256_storeu_ps(c3 + j + 8, acc31);
    }
    for (; j < n; j += 8) {
      // Ragged columns: re-anchor at n - 8 when possible (overlapped
      // lanes recompute identical bits; loads stay inside row p of B
      // because ldb >= n), else maskload the short row.
      const std::int32_t r = n - j;
      const std::int32_t j0 = n >= 8 ? std::min(j, n - 8) : j;
      const __m256i mask = tail_mask(std::min<std::int32_t>(8, r));
      for (std::int32_t ii = 0; ii < 4; ++ii) {
        const float* ai = row(a, i + ii, lda);
        float* ci = row(c, i + ii, ldc);
        __m256 acc = _mm256_set1_ps(bias[i + ii]);
        if (n >= 8) {
          const float* bp = b + j0;
          for (std::int32_t p = 0; p < k; ++p, bp += ldb) {
            acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(ai[p]), _mm256_loadu_ps(bp)));
          }
          _mm256_storeu_ps(ci + j0, acc);
        } else {
          const float* bp = b + j;
          for (std::int32_t p = 0; p < k; ++p, bp += ldb) {
            acc = _mm256_add_ps(acc,
                                _mm256_mul_ps(_mm256_set1_ps(ai[p]), _mm256_maskload_ps(bp, mask)));
          }
          _mm256_maskstore_ps(ci + j, mask, acc);
        }
      }
    }
  }
  for (; i < m; ++i) {
    const float* ai = row(a, i, lda);
    float* ci = row(c, i, ldc);
    std::int32_t j = 0;
    for (; j + 8 <= n; j += 8) {
      __m256 acc = _mm256_set1_ps(bias[i]);
      const float* bp = b + j;
      for (std::int32_t p = 0; p < k; ++p, bp += ldb) {
        acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(ai[p]), _mm256_loadu_ps(bp)));
      }
      _mm256_storeu_ps(ci + j, acc);
    }
    const std::int32_t r = n - j;
    if (r > 0) {
      __m256 acc = _mm256_set1_ps(bias[i]);
      if (n >= 8) {
        const float* bp = b + (n - 8);
        for (std::int32_t p = 0; p < k; ++p, bp += ldb) {
          acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(ai[p]), _mm256_loadu_ps(bp)));
        }
        _mm256_storeu_ps(ci + (n - 8), acc);
      } else {
        const __m256i mask = tail_mask(r);
        const float* bp = b + j;
        for (std::int32_t p = 0; p < k; ++p, bp += ldb) {
          acc = _mm256_add_ps(acc,
                              _mm256_mul_ps(_mm256_set1_ps(ai[p]), _mm256_maskload_ps(bp, mask)));
        }
        _mm256_maskstore_ps(ci + j, mask, acc);
      }
    }
  }
}

void avx2_conv_forward_valid(const float* src, std::int32_t in_c, std::int32_t ih, std::int32_t iw,
                             std::int32_t k, std::int32_t out_c, const float* w, const float* bias,
                             float* dst) {
  // Taps (i, dy, dx) ascend per accumulator — the reference chain. The
  // reduction chain itself may never be split (that would reassociate),
  // so instruction-level parallelism comes from batching INDEPENDENT
  // chains: 2 output channels x 2 column chunks = 4 accumulators per
  // inner loop, sharing each tap's input loads. Full chunks load
  // unmasked: x + dx + 8 <= (ow - 8) + dx + 8 = ow + dx <= iw, always
  // in-bounds. A ragged tail (ow not a multiple of 8) re-anchors the
  // last chunk at x = ow - 8 when ow >= 8: overlapped lanes recompute
  // the exact same chains and store the exact same bits — far cheaper
  // than per-tap maskloads. Only ow < 8 needs the masked path at all.
  const std::int32_t oh = ih - k + 1;
  const std::int32_t ow = iw - k + 1;
  const std::int32_t taps = in_c * k * k;
  const auto in_row_at = [&](std::int32_t i, std::int32_t y, std::int32_t dy, std::int32_t x) {
    return src + (static_cast<std::size_t>(i) * ih + static_cast<std::size_t>(y + dy)) * iw + x;
  };
  // One inner kernel per (channel group, y, chunk set): OC accumulator
  // chains per chunk, all independent, sharing each tap's input loads.
  // x1 < 0 means "single chunk"; otherwise two chunks run together for
  // more chains in flight.
  const auto group = [&]<std::int32_t OC>(std::integral_constant<std::int32_t, OC>, std::int32_t o,
                                          std::int32_t y, std::int32_t x0, std::int32_t x1) {
    __m256 acc0[OC];
    __m256 acc1[OC];
    for (std::int32_t c = 0; c < OC; ++c) {
      acc0[c] = _mm256_set1_ps(bias[o + c]);
      acc1[c] = acc0[c];
    }
    const float* wbase = w + static_cast<std::size_t>(o) * static_cast<std::size_t>(taps);
    const bool two = x1 >= 0;
    for (std::int32_t i = 0; i < in_c; ++i) {
      for (std::int32_t dy = 0; dy < k; ++dy) {
        const float* r0 = in_row_at(i, y, dy, x0);
        const float* r1 = two ? in_row_at(i, y, dy, x1) : r0;
        const std::size_t w_off = static_cast<std::size_t>((i * k + dy) * k);
        for (std::int32_t dx = 0; dx < k; ++dx) {
          const __m256 v0 = _mm256_loadu_ps(r0 + dx);
          const __m256 v1 = _mm256_loadu_ps(r1 + dx);
          for (std::int32_t c = 0; c < OC; ++c) {
            const __m256 wv = _mm256_set1_ps(
                wbase[static_cast<std::size_t>(c) * static_cast<std::size_t>(taps) + w_off +
                      static_cast<std::size_t>(dx)]);
            acc0[c] = _mm256_add_ps(acc0[c], _mm256_mul_ps(wv, v0));
            if (two) acc1[c] = _mm256_add_ps(acc1[c], _mm256_mul_ps(wv, v1));
          }
        }
      }
    }
    for (std::int32_t c = 0; c < OC; ++c) {
      float* out_row =
          dst + (static_cast<std::size_t>(o + c) * oh + static_cast<std::size_t>(y)) * ow;
      _mm256_storeu_ps(out_row + x0, acc0[c]);
      if (two) _mm256_storeu_ps(out_row + x1, acc1[c]);
    }
  };
  for (std::int32_t o = 0; o < out_c;) {
    const std::int32_t oc = out_c - o >= 4 ? 4 : (out_c - o >= 2 ? 2 : 1);
    for (std::int32_t y = 0; y < oh; ++y) {
      if (ow >= 8) {
        std::int32_t x = 0;
        bool done = false;
        while (!done) {
          // Next one or two chunk anchors; the last is the overlapped
          // tail anchor ow - 8 when ow is not a multiple of 8.
          const std::int32_t x0 = x + 8 <= ow ? x : ow - 8;
          std::int32_t x1 = -1;
          if (x0 == ow - 8) {
            done = true;
          } else if (x + 16 <= ow) {
            x1 = x + 8;
          } else {
            x1 = ow - 8;
            done = true;
          }
          if (oc == 4) {
            group(std::integral_constant<std::int32_t, 4>{}, o, y, x0, x1);
          } else if (oc == 2) {
            group(std::integral_constant<std::int32_t, 2>{}, o, y, x0, x1);
          } else {
            group(std::integral_constant<std::int32_t, 1>{}, o, y, x0, x1);
          }
          x = (x1 >= 0 ? x1 : x0) + 8;
        }
      } else {
        // Narrow plane: one masked chunk per output channel.
        const __m256i mask = tail_mask(ow);
        for (std::int32_t oo = o; oo < o + oc; ++oo) {
          const float* woo = w + static_cast<std::size_t>(oo) * static_cast<std::size_t>(taps);
          float* out_row =
              dst + (static_cast<std::size_t>(oo) * oh + static_cast<std::size_t>(y)) * ow;
          __m256 acc = _mm256_set1_ps(bias[oo]);
          for (std::int32_t i = 0; i < in_c; ++i) {
            for (std::int32_t dy = 0; dy < k; ++dy) {
              const float* r0 = in_row_at(i, y, dy, 0);
              const float* w_row = woo + static_cast<std::size_t>((i * k + dy) * k);
              for (std::int32_t dx = 0; dx < k; ++dx) {
                acc = _mm256_add_ps(
                    acc, _mm256_mul_ps(_mm256_set1_ps(w_row[dx]), _mm256_maskload_ps(r0 + dx, mask)));
              }
            }
          }
          _mm256_maskstore_ps(out_row, mask, acc);
        }
      }
    }
    o += oc;
  }
}

void avx2_skipzero(std::int32_t m, std::int32_t n, std::int32_t k, const float* a, std::int32_t lda,
                   const float* b, std::int32_t ldb, float* c, std::int32_t ldc, float* bias_grad) {
  impl_gemm_accumulate_skipzero(avx2_axpy, m, n, k, a, lda, b, ldb, c, ldc, bias_grad);
}

void avx2_conv_grad_input(const float* g, const float* w, std::int32_t in_c, std::int32_t ih,
                          std::int32_t iw, std::int32_t k, std::int32_t pad, std::int32_t out_c,
                          float* gi) {
  impl_conv_grad_input(avx2_axpy, g, w, in_c, ih, iw, k, pad, out_c, gi);
}

constexpr GemmKernels kAvx2Kernels = {
    avx2_gemm_bias,          impl_im2col,          impl_im2row,
    avx2_skipzero,           avx2_conv_forward_valid, avx2_conv_grad_input,
};

#else  // non-x86: the tier aliases the portable bodies of this TU.

void fallback_gemm_bias(std::int32_t m, std::int32_t n, std::int32_t k, const float* a,
                        std::int32_t lda, const float* b, std::int32_t ldb, const float* bias,
                        float* c, std::int32_t ldc) {
  impl_gemm_bias(ref_axpy, m, n, k, a, lda, b, ldb, bias, c, ldc);
}

void fallback_skipzero(std::int32_t m, std::int32_t n, std::int32_t k, const float* a,
                       std::int32_t lda, const float* b, std::int32_t ldb, float* c,
                       std::int32_t ldc, float* bias_grad) {
  impl_gemm_accumulate_skipzero(ref_axpy, m, n, k, a, lda, b, ldb, c, ldc, bias_grad);
}

void fallback_conv_grad_input(const float* g, const float* w, std::int32_t in_c, std::int32_t ih,
                              std::int32_t iw, std::int32_t k, std::int32_t pad, std::int32_t out_c,
                              float* gi) {
  impl_conv_grad_input(ref_axpy, g, w, in_c, ih, iw, k, pad, out_c, gi);
}

constexpr GemmKernels kAvx2Kernels = {
    fallback_gemm_bias, impl_im2col,             impl_im2row,
    fallback_skipzero,  impl_conv_forward_valid, fallback_conv_grad_input,
};

#endif

}  // namespace

namespace detail {
const GemmKernels& avx2_kernels() noexcept { return kAvx2Kernels; }
}  // namespace detail

}  // namespace dl2f::nn::gemm
