// AVX2 Winograd F(2×2,3×3) and F(4×4,3×3) tile transforms.
//
// Compiled with -mavx2 -mfma alongside gemm_avx2.cpp/qgemm_avx2.cpp
// (see src/CMakeLists.txt). The scalar transforms walk one tile at a
// time, so every tile pays α² strided scatter/gather accesses plus the
// full add/sub network in scalar registers — enough to cost more than
// the α² pointwise GEMMs they feed. This TU vectorises ACROSS tiles
// instead: 8 consecutive tiles of one tile row form the 8 lanes of a
// ymm register, every transform element is produced for 8 tiles at
// once, and each lands in v/m as one contiguous 8-float store/load
// (consecutive tiles are adjacent columns of the per-element
// matrices).
//
// Input side: tile t of a row reads columns [m·t, m·t + α) of α input
// rows (m = output tile side, α = m + 2), so consecutive tiles overlap
// and one (8m + 2)-element row segment covers a whole block. The
// segment's first 8m elements deinterleave into the m stride-m phases
// (m = 2: an even/odd shuffle; m = 4: a 4×4 transpose within each
// 128-bit lane), a rotate-and-blend appends the last two elements as
// phases m and m + 1, and the Bᵀ·d·B network runs on whole registers.
// Rows that touch the zero-padded border are first copied into a
// stack segment, so the register block never branches per element. A
// row's last block overlaps the previous one; a row of fewer than 8
// tiles is one block whose surplus lanes are masked off at the store.
//
// Output side: column block [p0, p0+8) of the α² product matrices is
// loaded with plain contiguous loads (masked for a row's last, short
// block), Aᵀ·M·A runs on registers, and interleaving the m result
// phases of each output row (the inverse of the input deinterleave)
// yields 8m-pixel output row segments. A block with clipped edge tiles
// or fewer than 8 tiles runs the same register epilogue on a staging
// copy of its pixels, so no tile falls back to the scalar transform.
//
// The networks are the templates of winograd_kernels.hpp, instantiated
// on an 8-lane vector: the same operation order as the scalar path,
// with only exact products, so the transforms are bit-identical to it.
// The epilogue is apply_act256, the vector activation the GEMM paths
// use, on every pixel: it matches the scalar epi_pixel bit for bit for
// no activation, ReLU and leaky ReLU, while SiLU and sigmoid round
// their vector fast_exp differently from the scalar one (≈2 ULP).
#include "tensor/winograd_kernels.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cstring>

#include "tensor/simd_math.hpp"

namespace ocb::winograd::detail {
namespace {

/// 8 tiles' worth of one transform element; the operators the
/// transform templates need.
struct Lanes {
  __m256 v;
};
inline Lanes operator+(Lanes a, Lanes b) noexcept {
  return {_mm256_add_ps(a.v, b.v)};
}
inline Lanes operator-(Lanes a, Lanes b) noexcept {
  return {_mm256_sub_ps(a.v, b.v)};
}
inline Lanes operator*(Lanes a, float s) noexcept {
  return {_mm256_mul_ps(a.v, _mm256_set1_ps(s))};
}

/// 4×4 transpose within each 128-bit lane: out_j lane L holds element
/// j of in_0..in_3's lane L. It is its own inverse.
inline void transpose4_lanes(__m256& r0, __m256& r1, __m256& r2,
                             __m256& r3) noexcept {
  const __m256 t0 = _mm256_unpacklo_ps(r0, r1);
  const __m256 t1 = _mm256_unpackhi_ps(r0, r1);
  const __m256 t2 = _mm256_unpacklo_ps(r2, r3);
  const __m256 t3 = _mm256_unpackhi_ps(r2, r3);
  r0 = _mm256_shuffle_ps(t0, t2, 0x44);
  r1 = _mm256_shuffle_ps(t0, t2, 0xEE);
  r2 = _mm256_shuffle_ps(t1, t3, 0x44);
  r3 = _mm256_shuffle_ps(t1, t3, 0xEE);
}

/// Deinterleave an (8M + 2)-element row segment into the M + 2
/// stride-M phases the tile lanes consume: x_j[t] = rp[M·t + j].
template <int M>
inline void load_row_phases(const float* rp, Lanes* x) noexcept {
  if constexpr (M == 2) {
    const __m256 a = _mm256_loadu_ps(rp);
    const __m256 b = _mm256_loadu_ps(rp + 8);
    // shufps splits even/odd within each 128-bit half; the 64-bit
    // permute (pattern 0,2,1,3) re-sorts the four pairs back into
    // ascending order.
    const __m256 even = _mm256_shuffle_ps(a, b, 0x88);
    const __m256 odd = _mm256_shuffle_ps(a, b, 0xDD);
    x[0].v =
        _mm256_castpd_ps(_mm256_permute4x64_pd(_mm256_castps_pd(even), 0xD8));
    x[1].v =
        _mm256_castpd_ps(_mm256_permute4x64_pd(_mm256_castps_pd(odd), 0xD8));
  } else {
    // Groups g_t = rp[4t, 4t+4): pair g_t with g_{t+4} in one register
    // (t in the low lane), then transpose within lanes so that phase j
    // holds element j of g_0..g_3 low and of g_4..g_7 high.
    const __m256 a = _mm256_loadu_ps(rp);        // g0 | g1
    const __m256 b = _mm256_loadu_ps(rp + 8);    // g2 | g3
    const __m256 c = _mm256_loadu_ps(rp + 16);   // g4 | g5
    const __m256 d = _mm256_loadu_ps(rp + 24);   // g6 | g7
    __m256 r0 = _mm256_permute2f128_ps(a, c, 0x20);  // g0 | g4
    __m256 r1 = _mm256_permute2f128_ps(a, c, 0x31);  // g1 | g5
    __m256 r2 = _mm256_permute2f128_ps(b, d, 0x20);  // g2 | g6
    __m256 r3 = _mm256_permute2f128_ps(b, d, 0x31);  // g3 | g7
    transpose4_lanes(r0, r1, r2, r3);
    x[0].v = r0;
    x[1].v = r1;
    x[2].v = r2;
    x[3].v = r3;
  }
  // Phases M and M + 1 are phases 0 and 1 shifted one tile left, with
  // segment elements 8M and 8M + 1 entering at the top lane.
  const __m256i rot1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
  x[M].v = _mm256_blend_ps(_mm256_permutevar8x32_ps(x[0].v, rot1),
                           _mm256_broadcast_ss(rp + 8 * M), 0x80);
  x[M + 1].v = _mm256_blend_ps(_mm256_permutevar8x32_ps(x[1].v, rot1),
                               _mm256_broadcast_ss(rp + 8 * M + 1), 0x80);
}

/// Interleave the M phases of one output row (y[dx] lane t = pixel
/// M·t + dx) into 8M consecutive pixels, handing each 8-pixel segment
/// to emit(offset, segment).
template <int M, class Emit>
inline void store_row_phases(const Lanes* y, Emit&& emit) noexcept {
  if constexpr (M == 2) {
    const __m256 lo = _mm256_unpacklo_ps(y[0].v, y[1].v);
    const __m256 hi = _mm256_unpackhi_ps(y[0].v, y[1].v);
    emit(0, _mm256_permute2f128_ps(lo, hi, 0x20));
    emit(8, _mm256_permute2f128_ps(lo, hi, 0x31));
  } else {
    __m256 r0 = y[0].v, r1 = y[1].v, r2 = y[2].v, r3 = y[3].v;
    transpose4_lanes(r0, r1, r2, r3);  // r_t = tile t | tile t + 4
    emit(0, _mm256_permute2f128_ps(r0, r1, 0x20));
    emit(8, _mm256_permute2f128_ps(r2, r3, 0x20));
    emit(16, _mm256_permute2f128_ps(r0, r1, 0x31));
    emit(24, _mm256_permute2f128_ps(r2, r3, 0x31));
  }
}

/// Mask whose first n (0..8) lanes are set.
inline __m256i lane_mask(int n) noexcept {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(n),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

template <int M>
void input_avx2(const float* image, const ConvGeometry& geom, float* v,
                std::size_t ld, std::size_t col_offset, int ty0, int ty1) {
  constexpr int a = M + 2;
  constexpr int seg = 8 * M + 2;  // row segment one register block reads
  const int h = geom.in_h, w = geom.in_w, pad = geom.pad;
  const int tw = tiles_w(geom, M);
  const std::size_t plane = static_cast<std::size_t>(geom.in_c) * ld;
  // A row of fewer than 8 tiles is one block whose surplus lanes
  // transform zero padding and are masked off at the store: the
  // columns past the row belong to the next row or to another call.
  const __m256i narrow = lane_mask(tw);
  for (int c = 0; c < geom.in_c; ++c) {
    const float* src = image + static_cast<std::size_t>(c) * h * w;
    float* vc = v + static_cast<std::size_t>(c) * ld + col_offset;
    for (int ty = ty0; ty < ty1; ++ty) {
      const int iy0 = ty * M - pad;
      for (int tx0 = 0;;) {
        // Tail block: overlap-recompute the row's last 8 tiles.
        if (tx0 + 8 > tw) tx0 = std::max(0, tw - 8);
        const int ix0 = tx0 * M - pad;
        // Row pointers: direct when the segment is fully inside the
        // plane, else a zero-padded stack copy.
        float pbuf[a][seg];
        const bool xfast = ix0 >= 0 && ix0 + seg <= w;
        Lanes d[a][a];
        for (int r = 0; r < a; ++r) {
          const int sy = iy0 + r;
          const float* rp = pbuf[r];
          if (sy >= 0 && sy < h && xfast) {
            rp = src + static_cast<std::size_t>(sy) * w + ix0;
          } else if (sy < 0 || sy >= h) {
            std::memset(pbuf[r], 0, sizeof(pbuf[r]));
          } else {
            const float* srow = src + static_cast<std::size_t>(sy) * w;
            for (int j = 0; j < seg; ++j) {
              const int sx = ix0 + j;
              pbuf[r][j] = (sx >= 0 && sx < w) ? srow[sx] : 0.0f;
            }
          }
          load_row_phases<M>(rp, d[r]);
        }
        float* base = vc + static_cast<std::size_t>(ty - ty0) * tw + tx0;
        input_tile<M>(d, [&](int xi, Lanes y) {
          float* dst = base + static_cast<std::size_t>(xi) * plane;
          if (tw >= 8) {
            _mm256_storeu_ps(dst, y.v);
          } else {
            _mm256_maskstore_ps(dst, narrow, y.v);
          }
        });
        if (tx0 + 8 >= tw) break;
        tx0 += 8;
      }
    }
  }
}

template <int M>
void output_avx2(const float* m, std::size_t ld, std::size_t col_offset,
                 const ConvGeometry& geom, int out_c, const float* bias,
                 EpiAct act, EpiMode mode, float* output, int ty0, int ty1) {
  const int oh = geom.out_h(), ow = geom.out_w();
  const int tw = tiles_w(geom, M);
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
      const int oy0 = ty * M;
      const int rows = std::min(M, oh - oy0);
      // Column of tile (ty, 0) in the block.
      const std::size_t row_p = static_cast<std::size_t>(ty - ty0) * tw;
      for (int tx0 = 0; tx0 < tw; tx0 += 8) {
        // Blocks of 8 tiles; the row's last block may hold fewer, and
        // its masked-off lanes read nothing past the row.
        const int n = std::min(8, tw - tx0);
        const int cols = std::min(8 * M, ow - tx0 * M);
        const __m256i live = lane_mask(n);
        const float* p0 = mk + row_p + tx0;
        Lanes y[M][M];
        inverse_tile<M>(
            [&](int xi) {
              const float* src = p0 + static_cast<std::size_t>(xi) * plane;
              return Lanes{n == 8 ? _mm256_loadu_ps(src)
                                  : _mm256_maskload_ps(src, live)};
            },
            y);
        // Interleave the pixel phases back into 8M-pixel output row
        // segments and fold in bias/activation/residual in registers.
        // A clipped block (edge tiles, short rows) runs the same
        // epilogue on a staging copy of its pixels, so every pixel of
        // a plane goes through one activation formula.
        float* row0 = dst + static_cast<std::size_t>(oy0) * ow + tx0 * M;
        for (int dy = 0; dy < rows; ++dy) {
          float* row = row0 + static_cast<std::size_t>(dy) * ow;
          if (cols == 8 * M) {
            store_row_phases<M>(
                y[dy], [&](int off, __m256 s) { emit(row + off, s); });
            continue;
          }
          float seg[8 * M] = {};
          const std::size_t bytes =
              static_cast<std::size_t>(cols) * sizeof(float);
          std::memcpy(seg, row, bytes);
          store_row_phases<M>(
              y[dy], [&](int off, __m256 s) { emit(seg + off, s); });
          std::memcpy(row, seg, bytes);
        }
      }
    }
  }
}

}  // namespace

void transform_input_avx2(const float* image, const ConvGeometry& geom,
                          int tile, float* v, std::size_t ld,
                          std::size_t col_offset, int ty0, int ty1) {
  if (tile == 2) {
    input_avx2<2>(image, geom, v, ld, col_offset, ty0, ty1);
  } else {
    input_avx2<4>(image, geom, v, ld, col_offset, ty0, ty1);
  }
}

void transform_output_avx2(const float* m, std::size_t ld,
                           std::size_t col_offset, const ConvGeometry& geom,
                           int tile, int out_c, const float* bias, EpiAct act,
                           EpiMode mode, float* output, int ty0, int ty1) {
  if (tile == 2) {
    output_avx2<2>(m, ld, col_offset, geom, out_c, bias, act, mode, output,
                   ty0, ty1);
  } else {
    output_avx2<4>(m, ld, col_offset, geom, out_c, bias, act, mode, output,
                   ty0, ty1);
  }
}

}  // namespace ocb::winograd::detail

#else  // !(__AVX2__ && __FMA__): baseline build of this TU

namespace ocb::winograd::detail {

void transform_input_avx2(const float* image, const ConvGeometry& geom,
                          int tile, float* v, std::size_t ld,
                          std::size_t col_offset, int ty0, int ty1) {
  // The dispatcher never routes here when avx2_compiled() is false;
  // keep a correct fallback anyway rather than a trap.
  transform_input_scalar(image, geom, tile, v, ld, col_offset, ty0, ty1);
}

void transform_output_avx2(const float* m, std::size_t ld,
                           std::size_t col_offset, const ConvGeometry& geom,
                           int tile, int out_c, const float* bias, EpiAct act,
                           EpiMode mode, float* output, int ty0, int ty1) {
  transform_output_scalar(m, ld, col_offset, geom, tile, out_c, bias, act,
                          mode, output, ty0, ty1);
}

}  // namespace ocb::winograd::detail

#endif
