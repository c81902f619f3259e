// AVX2 kernel for the fused panel packer's strided rows.
//
// Stride-2 convolutions (every YOLO downsample layer and the ResNet
// stem) gather every other input float; done scalar that walk is the
// dominant cost of the on-the-fly packer. The deinterleave
// (load_stride2, tensor/simd_math.hpp) turns two 8-float loads into one
// 8-float store, an ~4x faster gather. Compiled
// with -mavx2 when available; the scalar fallback keeps the TU valid on
// baseline builds, and the caller's dispatch mirrors gemm/winograd.
#include "tensor/im2col.hpp"
#include "tensor/simd.hpp"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>

#include "tensor/simd_math.hpp"
#endif

namespace ocb::detail {

void gather_stride2(const float* src, int n, float* out) noexcept {
  int i = 0;
#if defined(__AVX2__) && defined(__FMA__)
  if (simd::active() == simd::Level::kAvx2) {
    // Strictly i + 8 < n: the second load touches src[2i + 15], one
    // past the last gathered element src[2(n-1)], which may be the
    // final float of the image — the scalar tail covers the last
    // vector-width so no load crosses the gathered range.
    for (; i + 8 < n; i += 8)
      _mm256_storeu_ps(out + i, load_stride2(src + 2 * i));
  }
#endif
  for (; i < n; ++i) out[i] = src[2 * i];
}

}  // namespace ocb::detail
