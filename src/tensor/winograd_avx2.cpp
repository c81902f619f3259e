// AVX2 Winograd F(2×2,3×3) tile transforms.
//
// Compiled with -mavx2 -mfma alongside gemm_avx2.cpp/qgemm_avx2.cpp
// (see src/CMakeLists.txt). The scalar transforms walk one tile at a
// time, so every tile pays 16 strided scatter/gather accesses plus the
// full add/sub network in scalar registers — enough to cost more than
// the 16 pointwise GEMMs they feed. This TU vectorises ACROSS tiles
// instead: 8 consecutive tiles of one tile row form the 8 lanes of a
// ymm register, every transform element is produced for 8 tiles at
// once, and each lands in v/m as one contiguous 8-float store/load
// (consecutive tiles are adjacent columns of the per-element
// matrices).
//
// Input side: tile t of a row reads columns [2t, 2t+4) of four input
// rows, so consecutive tiles overlap at stride 2 and one 18-element
// row segment covers a whole block. Two 8-float loads deinterleave
// into the even/odd phases, a rotate-and-blend appends elements 16/17,
// and the Bᵀ·d·B add/sub network runs on whole registers. Rows that
// touch the zero-padded border are first copied into an 18-element
// stack segment, so the register block never branches per element.
//
// Output side: column block [p0, p0+8) of the 16 product matrices is
// loaded with plain contiguous loads, Aᵀ·M·A runs on registers, and
// interleaving the even/odd result phases yields two 16-pixel output
// row segments. Clipped edge tiles (odd out_h/out_w) use the shared
// scalar tile helper.
//
// The transforms use only add/sub — no FMA contraction — so results
// are bit-identical to the scalar path; activations go through
// apply_act256, the same vector epilogue the GEMM paths use.
#include "tensor/winograd_kernels.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cstring>

#include "tensor/simd_math.hpp"

namespace ocb::winograd::detail {
namespace {

/// Deinterleave an 18-element row segment into the four stride-2
/// phases the tile lanes consume: x_j[t] = rp[2t + j] for t = 0..7.
inline void load_row_phases(const float* rp, __m256& x0, __m256& x1,
                            __m256& x2, __m256& x3) noexcept {
  const __m256 a = _mm256_loadu_ps(rp);
  const __m256 b = _mm256_loadu_ps(rp + 8);
  // shufps splits even/odd within each 128-bit half; the 64-bit
  // permute (pattern 0,2,1,3) re-sorts the four pairs back into
  // ascending order.
  __m256 even = _mm256_shuffle_ps(a, b, 0x88);
  __m256 odd = _mm256_shuffle_ps(a, b, 0xDD);
  even = _mm256_castpd_ps(_mm256_permute4x64_pd(_mm256_castps_pd(even), 0xD8));
  odd = _mm256_castpd_ps(_mm256_permute4x64_pd(_mm256_castps_pd(odd), 0xD8));
  const __m256i rot1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
  x0 = even;
  x1 = odd;
  // Phases 2/3 are the same sequences shifted one element left, with
  // segment elements 16/17 entering at the top lane.
  x2 = _mm256_blend_ps(_mm256_permutevar8x32_ps(even, rot1),
                       _mm256_broadcast_ss(rp + 16), 0x80);
  x3 = _mm256_blend_ps(_mm256_permutevar8x32_ps(odd, rot1),
                       _mm256_broadcast_ss(rp + 17), 0x80);
}

}  // namespace

void transform_input_avx2(const float* image, const ConvGeometry& geom,
                          float* v, std::size_t ld, std::size_t col_offset,
                          int ty0, int ty1) {
  const int h = geom.in_h, w = geom.in_w, pad = geom.pad;
  const int tw = tiles_w(geom);
  const std::size_t plane = static_cast<std::size_t>(geom.in_c) * ld;
  for (int c = 0; c < geom.in_c; ++c) {
    const float* src = image + static_cast<std::size_t>(c) * h * w;
    float* vc = v + static_cast<std::size_t>(c) * ld + col_offset;
    for (int ty = ty0; ty < ty1; ++ty) {
      const int iy0 = ty * kTileOut - pad;
      for (int tx0 = 0;;) {
        if (tx0 + 8 > tw) tx0 = tw - 8;  // tail block: overlap-recompute
        const int ix0 = tx0 * kTileOut - pad;
        // Row pointers: direct when the 18-element segment is fully
        // inside the plane, else a zero-padded stack copy.
        float pbuf[4][18];
        const float* rp[4];
        const bool xfast = ix0 >= 0 && ix0 + 18 <= w;
        for (int r = 0; r < 4; ++r) {
          const int sy = iy0 + r;
          if (sy >= 0 && sy < h && xfast) {
            rp[r] = src + static_cast<std::size_t>(sy) * w + ix0;
            continue;
          }
          float* pb = pbuf[r];
          if (sy < 0 || sy >= h) {
            std::memset(pb, 0, sizeof(pbuf[r]));
          } else {
            const float* srow = src + static_cast<std::size_t>(sy) * w;
            for (int j = 0; j < 18; ++j) {
              const int sx = ix0 + j;
              pb[j] = (sx >= 0 && sx < w) ? srow[sx] : 0.0f;
            }
          }
          rp[r] = pb;
        }
        __m256 d[4][4];
        for (int r = 0; r < 4; ++r)
          load_row_phases(rp[r], d[r][0], d[r][1], d[r][2], d[r][3]);
        // V = Bᵀ d B: columns, then rows — the same operation order as
        // the scalar path, so results match bit for bit.
        __m256 t[4][4];
        for (int j = 0; j < 4; ++j) {
          t[0][j] = _mm256_sub_ps(d[0][j], d[2][j]);
          t[1][j] = _mm256_add_ps(d[1][j], d[2][j]);
          t[2][j] = _mm256_sub_ps(d[2][j], d[1][j]);
          t[3][j] = _mm256_sub_ps(d[1][j], d[3][j]);
        }
        float* base = vc + static_cast<std::size_t>(ty - ty0) * tw + tx0;
        for (int r = 0; r < 4; ++r) {
          const __m256 y0 = _mm256_sub_ps(t[r][0], t[r][2]);
          const __m256 y1 = _mm256_add_ps(t[r][1], t[r][2]);
          const __m256 y2 = _mm256_sub_ps(t[r][2], t[r][1]);
          const __m256 y3 = _mm256_sub_ps(t[r][1], t[r][3]);
          float* out = base + static_cast<std::size_t>(r) * 4 * plane;
          _mm256_storeu_ps(out, y0);
          _mm256_storeu_ps(out + plane, y1);
          _mm256_storeu_ps(out + 2 * plane, y2);
          _mm256_storeu_ps(out + 3 * plane, y3);
        }
        if (tx0 + 8 >= tw) break;
        tx0 += 8;
      }
    }
  }
}

void transform_output_avx2(const float* m, std::size_t ld,
                           std::size_t col_offset, const ConvGeometry& geom,
                           int out_c, const float* bias, EpiAct act,
                           EpiMode mode, float* output, int ty0, int ty1) {
  const int oh = geom.out_h(), ow = geom.out_w();
  const int tw = tiles_w(geom);
  const int full_tw = ow / kTileOut;  // tiles with both columns in-bounds
  // The overlapping-tail trick (recompute the last 8 tiles of a row so
  // the block never leaves full_tw) rewrites pixels. That is idempotent
  // when storing, but an accumulating mode reads the output back, so
  // the residual-fused modes use non-overlapping blocks and finish each
  // row with scalar tiles instead.
  const bool overlap_tail = mode == EpiMode::kStore;
  const std::size_t plane = static_cast<std::size_t>(out_c) * ld;
  for (int k = 0; k < out_c; ++k) {
    const float* mk = m + static_cast<std::size_t>(k) * ld + col_offset;
    float* dst = output + static_cast<std::size_t>(k) * oh * ow;
    const float bk = bias != nullptr ? bias[k] : 0.0f;
    const __m256 bv = _mm256_set1_ps(bk);
    // Combine one 8-pixel segment with the output row per `mode`,
    // matching inverse_tile_scalar's operation order exactly.
    const auto emit = [&](float* row, __m256 y) {
      switch (mode) {
        case EpiMode::kStore:
          _mm256_storeu_ps(
              row, ocb::detail::apply_act256(_mm256_add_ps(y, bv), act));
          break;
        case EpiMode::kAccThenAct:
          _mm256_storeu_ps(
              row, ocb::detail::apply_act256(_mm256_add_ps(
                       _mm256_add_ps(_mm256_loadu_ps(row), y), bv), act));
          break;
        case EpiMode::kActThenAcc:
          _mm256_storeu_ps(
              row, _mm256_add_ps(_mm256_loadu_ps(row),
                                 ocb::detail::apply_act256(
                                     _mm256_add_ps(y, bv), act)));
          break;
      }
    };
    for (int ty = ty0; ty < ty1; ++ty) {
      const int oy0 = ty * kTileOut;
      // Column of tile (ty, 0) in the block.
      const std::size_t row_p = static_cast<std::size_t>(ty - ty0) * tw;
      if (oy0 + kTileOut > oh) {
        // Clipped bottom tile row: scalar tiles.
        for (int tx = 0; tx < tw; ++tx)
          inverse_tile_scalar(mk, plane, row_p + tx, oy0, tx * kTileOut, oh,
                              ow, bk, act, mode, dst);
        continue;
      }
      int covered = 0;  // tiles written by register blocks this row
      for (int tx0 = 0; tx0 + 8 <= full_tw ||
                        (overlap_tail && full_tw >= 8 && covered < full_tw);) {
        if (tx0 + 8 > full_tw) tx0 = full_tw - 8;  // tail: overlap
        const std::size_t p0 = row_p + tx0;
        __m256 mm[kTileElems];
        for (int xi = 0; xi < kTileElems; ++xi)
          mm[xi] =
              _mm256_loadu_ps(mk + static_cast<std::size_t>(xi) * plane + p0);
        // Y = Aᵀ M A: columns, then rows.
        __m256 t0[4], t1[4];
        for (int j = 0; j < 4; ++j) {
          t0[j] = _mm256_add_ps(_mm256_add_ps(mm[j], mm[4 + j]), mm[8 + j]);
          t1[j] = _mm256_sub_ps(_mm256_sub_ps(mm[4 + j], mm[8 + j]),
                                mm[12 + j]);
        }
        const __m256 y00 = _mm256_add_ps(_mm256_add_ps(t0[0], t0[1]), t0[2]);
        const __m256 y01 = _mm256_sub_ps(_mm256_sub_ps(t0[1], t0[2]), t0[3]);
        const __m256 y10 = _mm256_add_ps(_mm256_add_ps(t1[0], t1[1]), t1[2]);
        const __m256 y11 = _mm256_sub_ps(_mm256_sub_ps(t1[1], t1[2]), t1[3]);
        // Interleave the even/odd pixel phases back into two 16-pixel
        // output row segments, then fold in bias/activation/residual.
        const int ox0 = tx0 * kTileOut;
        {
          const __m256 lo = _mm256_unpacklo_ps(y00, y01);
          const __m256 hi = _mm256_unpackhi_ps(y00, y01);
          float* row = dst + static_cast<std::size_t>(oy0) * ow + ox0;
          emit(row, _mm256_permute2f128_ps(lo, hi, 0x20));
          emit(row + 8, _mm256_permute2f128_ps(lo, hi, 0x31));
        }
        {
          const __m256 lo = _mm256_unpacklo_ps(y10, y11);
          const __m256 hi = _mm256_unpackhi_ps(y10, y11);
          float* row = dst + static_cast<std::size_t>(oy0 + 1) * ow + ox0;
          emit(row, _mm256_permute2f128_ps(lo, hi, 0x20));
          emit(row + 8, _mm256_permute2f128_ps(lo, hi, 0x31));
        }
        covered = tx0 + 8;
        tx0 += 8;
      }
      // Residual-mode row remainder plus the clipped last column (odd
      // out_w) — everything the register blocks did not cover.
      for (int tx = covered; tx < tw; ++tx)
        inverse_tile_scalar(mk, plane, row_p + tx, oy0, tx * kTileOut, oh, ow,
                            bk, act, mode, dst);
    }
  }
}

}  // namespace ocb::winograd::detail

#else  // !(__AVX2__ && __FMA__): baseline build of this TU

namespace ocb::winograd::detail {

void transform_input_avx2(const float* image, const ConvGeometry& geom,
                          float* v, std::size_t ld, std::size_t col_offset,
                          int ty0, int ty1) {
  // The dispatcher never routes here when avx2_compiled() is false;
  // keep a correct fallback anyway rather than a trap.
  transform_input_scalar(image, geom, v, ld, col_offset, ty0, ty1);
}

void transform_output_avx2(const float* m, std::size_t ld,
                           std::size_t col_offset, const ConvGeometry& geom,
                           int out_c, const float* bias, EpiAct act,
                           EpiMode mode, float* output, int ty0, int ty1) {
  transform_output_scalar(m, ld, col_offset, geom, out_c, bias, act, mode,
                          output, ty0, ty1);
}

}  // namespace ocb::winograd::detail

#endif
