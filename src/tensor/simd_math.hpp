// AVX2 vector math shared by the SIMD translation units.
//
// Only *_avx2.cpp TUs include this header (the GEMM epilogues and the
// non-GEMM ops in nn/ops_avx2.cpp); they are compiled with -mavx2
// -mfma, and the content is guarded so a baseline build of those TUs
// (non-x86, old toolchain) sees nothing. Keeping the activation vectors
// here means the FP32 epilogue, the INT8 requantize epilogue and a
// standalone activation produce identical activation numerics.
#pragma once

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include "tensor/gemm.hpp"

namespace ocb::detail {

/// Vector exp, same Cody–Waite exp2 reduction + degree-6 polynomial as
/// the scalar fast_exp() (gemm.cpp) — max relative error ≈ 2 ULP.
///
/// The clamp is ±87, not the float-overflow limit 88: sigmoid256 below
/// computes 1/(1+exp(x)), and 1/(1+e^88) is DENORMAL (6e-39 < FLT_MIN).
/// Without FTZ/DAZ every op that later touches that lane takes a
/// ~30-100 cycle microcode assist — a silent 30× epilogue slowdown for
/// saturated activations. 1/(1+e^87) = 1.64e-38 stays normal, and at
/// these magnitudes sigmoid is 0/1 to float precision either way.
inline __m256 exp256(__m256 x) noexcept {
  x = _mm256_min_ps(_mm256_set1_ps(87.0f),
                    _mm256_max_ps(_mm256_set1_ps(-87.0f), x));
  const __m256 t = _mm256_mul_ps(x, _mm256_set1_ps(1.4426950408889634f));
  const __m256 fi = _mm256_round_ps(
      _mm256_add_ps(t, _mm256_set1_ps(0.5f)),
      _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);  // floor(t + 1/2)
  // Cody–Waite reduction, matching the scalar fast_exp: fi·ln2_hi is
  // exact for |fi| ≤ 2^7, keeping the reduction error at ULP level
  // across the full clamp range.
  __m256 u = _mm256_fnmadd_ps(fi, _mm256_set1_ps(0.693359375f), x);
  u = _mm256_fmadd_ps(fi, _mm256_set1_ps(2.12194440e-4f), u);
  __m256 p = _mm256_set1_ps(1.0f / 720.0f);
  p = _mm256_fmadd_ps(p, u, _mm256_set1_ps(1.0f / 120.0f));
  p = _mm256_fmadd_ps(p, u, _mm256_set1_ps(1.0f / 24.0f));
  p = _mm256_fmadd_ps(p, u, _mm256_set1_ps(1.0f / 6.0f));
  p = _mm256_fmadd_ps(p, u, _mm256_set1_ps(0.5f));
  p = _mm256_fmadd_ps(p, u, _mm256_set1_ps(1.0f));
  p = _mm256_fmadd_ps(p, u, _mm256_set1_ps(1.0f));
  __m256i e = _mm256_cvtps_epi32(fi);
  e = _mm256_slli_epi32(_mm256_add_epi32(e, _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(p, _mm256_castsi256_ps(e));
}

/// p[0], p[2], ..., p[14] — a stride-2 gather as one deinterleave of
/// two 8-float loads (shuffle the even lanes of both halves, then
/// repair the lane order). Reads p[0..15].
inline __m256 load_stride2(const float* p) noexcept {
  const __m256 lo = _mm256_loadu_ps(p);
  const __m256 hi = _mm256_loadu_ps(p + 8);
  // Even lanes of (lo, hi) per 128-bit half: [a0 a2 b0 b2 | a4 a6 b4 b6].
  const __m256 even = _mm256_shuffle_ps(lo, hi, _MM_SHUFFLE(2, 0, 2, 0));
  return _mm256_permutevar8x32_ps(
      even, _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7));
}

inline __m256 sigmoid256(__m256 x) noexcept {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 ex = exp256(_mm256_sub_ps(_mm256_setzero_ps(), x));
  return _mm256_div_ps(one, _mm256_add_ps(one, ex));
}

inline __m256 apply_act256(__m256 v, EpiAct act) noexcept {
  switch (act) {
    case EpiAct::kNone: return v;
    case EpiAct::kRelu: return _mm256_max_ps(v, _mm256_setzero_ps());
    case EpiAct::kLeakyRelu:
      // v ≥ 0 → v ≥ slope·v; v < 0 → slope·v > v: a max implements the
      // piecewise form branch-free for any slope in (0, 1).
      return _mm256_max_ps(v, _mm256_mul_ps(v, _mm256_set1_ps(kLeakySlope)));
    case EpiAct::kSilu: return _mm256_mul_ps(v, sigmoid256(v));
    case EpiAct::kSigmoid: return sigmoid256(v);
  }
  return v;
}

}  // namespace ocb::detail

#endif  // __AVX2__ && __FMA__
