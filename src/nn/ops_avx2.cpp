// AVX2 row kernels of the non-GEMM ops (see nn/ops_kernels.hpp).
//
// Compiled with -mavx2 -mfma when the toolchain has them; each kernel
// checks simd::active() and finishes (or, on a baseline build, does all
// of) its row in the scalar loop below the vector one.
//  * act_row reuses the GEMM epilogue's vector activation, so an
//    activation computed here equals one fused into a conv.
//  * pool_row's stride-2 taps use load_stride2, the deinterleave behind
//    tensor/im2col_avx2.cpp's gather_stride2.
//  * interleave_row zips two rows with unpack + a 128-bit lane swap.
#include <algorithm>

#include "nn/ops_kernels.hpp"
#include "tensor/simd.hpp"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>

#include "tensor/simd_math.hpp"
#define OCB_OPS_AVX2 1
#endif

namespace ocb::nn::detail {

#if defined(OCB_OPS_AVX2)
namespace {
bool vector_path() noexcept { return simd::active() == simd::Level::kAvx2; }
}  // namespace

using ocb::detail::apply_act256;
using ocb::detail::load_stride2;
#endif

void act_row(float* row, std::size_t n, EpiAct act) noexcept {
  if (act == EpiAct::kNone) return;
  std::size_t i = 0;
#if defined(OCB_OPS_AVX2)
  if (vector_path())
    for (; i + 8 <= n; i += 8)
      _mm256_storeu_ps(row + i,
                       apply_act256(_mm256_loadu_ps(row + i), act));
#endif
  for (; i < n; ++i) row[i] = apply_epi_act(act, row[i]);
}

void max_row(float* acc, const float* src, std::size_t n) noexcept {
  std::size_t i = 0;
#if defined(OCB_OPS_AVX2)
  if (vector_path())
    for (; i + 8 <= n; i += 8)
      _mm256_storeu_ps(acc + i, _mm256_max_ps(_mm256_loadu_ps(src + i),
                                              _mm256_loadu_ps(acc + i)));
#endif
  for (; i < n; ++i) acc[i] = std::max(acc[i], src[i]);
}

void add_row(const float* a, const float* b, std::size_t n,
             float* out) noexcept {
  std::size_t i = 0;
#if defined(OCB_OPS_AVX2)
  if (vector_path())
    for (; i + 8 <= n; i += 8)
      _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_loadu_ps(a + i),
                                              _mm256_loadu_ps(b + i)));
#endif
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

void interleave_row(const float* even, const float* odd, std::size_t n,
                    float* out) noexcept {
  std::size_t i = 0;
#if defined(OCB_OPS_AVX2)
  if (vector_path()) {
    for (; i + 8 <= n; i += 8) {
      const __m256 e = _mm256_loadu_ps(even + i);
      const __m256 o = _mm256_loadu_ps(odd + i);
      // Per 128-bit half: [e0 o0 e1 o1 | e4 o4 e5 o5], [e2 o2 e3 o3 | ...].
      const __m256 lo = _mm256_unpacklo_ps(e, o);
      const __m256 hi = _mm256_unpackhi_ps(e, o);
      _mm256_storeu_ps(out + 2 * i, _mm256_permute2f128_ps(lo, hi, 0x20));
      _mm256_storeu_ps(out + 2 * i + 8, _mm256_permute2f128_ps(lo, hi, 0x31));
    }
  }
#endif
  for (; i < n; ++i) {
    out[2 * i] = even[i];
    out[2 * i + 1] = odd[i];
  }
}

void pool_row(const float* padded, int k, int stride, int n,
              float* out) noexcept {
  int x = 0;
#if defined(OCB_OPS_AVX2)
  if (vector_path() && stride == 1) {
    for (; x + 8 <= n; x += 8) {
      __m256 best = _mm256_loadu_ps(padded + x);
      for (int kx = 1; kx < k; ++kx)
        best = _mm256_max_ps(_mm256_loadu_ps(padded + x + kx), best);
      _mm256_storeu_ps(out + x, best);
    }
  } else if (vector_path() && stride == 2) {
    // Strictly x + 8 < n: a tap's second load reads padded[2x + kx +
    // 15], past the last tap padded[2(n − 1) + k − 1] for the final
    // vector; the scalar tail covers it.
    for (; x + 8 < n; x += 8) {
      __m256 best = load_stride2(padded + 2 * x);
      for (int kx = 1; kx < k; ++kx)
        best = _mm256_max_ps(load_stride2(padded + 2 * x + kx), best);
      _mm256_storeu_ps(out + x, best);
    }
  }
#endif
  for (; x < n; ++x) {
    const float* p = padded + static_cast<std::ptrdiff_t>(stride) * x;
    float best = p[0];
    for (int kx = 1; kx < k; ++kx) best = std::max(best, p[kx]);
    out[x] = best;
  }
}

}  // namespace ocb::nn::detail
