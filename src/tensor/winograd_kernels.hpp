// Internal contract between the Winograd transform dispatcher
// (winograd.cpp) and the AVX2 translation unit (winograd_avx2.cpp).
// Not installed as public API.
//
// The per-tile scalar helpers live here so both translation units
// share one definition: the scalar transforms iterate them over every
// tile, and the AVX2 path falls back to them for the clipped edge
// tiles its 8-tile register blocks cannot cover.
#pragma once

#include <cstddef>

#include "tensor/winograd.hpp"

namespace ocb::winograd::detail {

// 1-D pieces of the F(2,3) transform triple. Each 2-D transform is the
// 1-D form applied first down the columns, then across the rows (the
// matrices are small enough that spelling the adds out beats a generic
// matmul by a wide margin and keeps the operation count minimal).

/// y = Bᵀ x with Bᵀ = [[1,0,-1,0],[0,1,1,0],[0,-1,1,0],[0,1,0,-1]].
inline void bt_mul(const float x[4], float y[4]) noexcept {
  y[0] = x[0] - x[2];
  y[1] = x[1] + x[2];
  y[2] = x[2] - x[1];
  y[3] = x[1] - x[3];
}

/// y = G x with G = [[1,0,0],[½,½,½],[½,−½,½],[0,0,1]].
inline void g_mul(const float x[3], float y[4]) noexcept {
  y[0] = x[0];
  y[1] = 0.5f * (x[0] + x[1] + x[2]);
  y[2] = 0.5f * (x[0] - x[1] + x[2]);
  y[3] = x[2];
}

/// y = Aᵀ x with Aᵀ = [[1,1,1,0],[0,1,-1,-1]].
inline void at_mul(const float x[4], float y[2]) noexcept {
  y[0] = x[0] + x[1] + x[2];
  y[1] = x[1] - x[2] - x[3];
}

/// Transform the 4×4 input tile at (iy0, ix0) of one h×w plane
/// (positions outside the plane gather zeros, matching im2col's
/// padding) and scatter its 16 elements into column `p` of the 16
/// per-element matrices rooted at `vc`, `plane` floats apart.
inline void input_tile_scalar(const float* src, int h, int w, int iy0,
                              int ix0, float* vc, std::size_t plane,
                              std::size_t p) noexcept {
  float d[4][4];
  if (iy0 >= 0 && ix0 >= 0 && iy0 + 4 <= h && ix0 + 4 <= w) {
    // Interior tile: four contiguous row loads.
    const float* row = src + static_cast<std::size_t>(iy0) * w + ix0;
    for (int r = 0; r < 4; ++r, row += w) {
      d[r][0] = row[0];
      d[r][1] = row[1];
      d[r][2] = row[2];
      d[r][3] = row[3];
    }
  } else {
    // Border tile: gather with zero padding.
    for (int r = 0; r < 4; ++r) {
      const int sy = iy0 + r;
      for (int col = 0; col < 4; ++col) {
        const int sx = ix0 + col;
        d[r][col] = (sy >= 0 && sy < h && sx >= 0 && sx < w)
                        ? src[static_cast<std::size_t>(sy) * w + sx]
                        : 0.0f;
      }
    }
  }
  // V = Bᵀ d B: columns, then rows.
  float t[4][4];
  for (int col = 0; col < 4; ++col) {
    const float x[4] = {d[0][col], d[1][col], d[2][col], d[3][col]};
    float y[4];
    bt_mul(x, y);
    for (int row = 0; row < 4; ++row) t[row][col] = y[row];
  }
  for (int row = 0; row < 4; ++row) {
    float y[4];
    bt_mul(t[row], y);
    for (int col = 0; col < 4; ++col)
      vc[static_cast<std::size_t>(row * 4 + col) * plane + p] = y[col];
  }
}

/// Inverse-transform column `p` of the 16 product matrices rooted at
/// `mk` (`plane` floats apart) into the 2×2 output tile at (oy0, ox0),
/// fusing the bias add and activation; rows/columns past oh/ow are
/// clipped. `mode` combines the tile with the existing output exactly
/// as the GEMM epilogue does (residual fusion preloads dst).
inline void inverse_tile_scalar(const float* mk, std::size_t plane,
                                std::size_t p, int oy0, int ox0, int oh,
                                int ow, float bk, EpiAct act, EpiMode mode,
                                float* dst) noexcept {
  float tile[4][4];
  for (int xi = 0; xi < kTileElems; ++xi)
    tile[xi / 4][xi % 4] = mk[static_cast<std::size_t>(xi) * plane + p];
  // Y = Aᵀ M A: columns, then rows.
  float t[2][4];
  for (int col = 0; col < 4; ++col) {
    const float x[4] = {tile[0][col], tile[1][col], tile[2][col],
                        tile[3][col]};
    float y[2];
    at_mul(x, y);
    t[0][col] = y[0];
    t[1][col] = y[1];
  }
  for (int dy = 0; dy < kTileOut; ++dy) {
    const int oy = oy0 + dy;
    if (oy >= oh) break;
    float y[2];
    at_mul(t[dy], y);
    float* out_row = dst + static_cast<std::size_t>(oy) * ow;
    for (int dx = 0; dx < kTileOut; ++dx) {
      const int ox = ox0 + dx;
      if (ox >= ow) break;
      switch (mode) {
        case EpiMode::kStore:
          out_row[ox] = apply_epi_act(act, y[dx] + bk);
          break;
        case EpiMode::kAccThenAct:
          out_row[ox] = apply_epi_act(act, out_row[ox] + y[dx] + bk);
          break;
        case EpiMode::kActThenAcc:
          out_row[ox] += apply_epi_act(act, y[dx] + bk);
          break;
      }
    }
  }
}

/// Scalar reference transforms over tile rows [ty0, ty1) — the
/// fallback and the oracle for the AVX2 path. Defined in winograd.cpp.
void transform_input_scalar(const float* image, const ConvGeometry& geom,
                            float* v, std::size_t ld, std::size_t col_offset,
                            int ty0, int ty1);
void transform_output_scalar(const float* m, std::size_t ld,
                             std::size_t col_offset, const ConvGeometry& geom,
                             int out_c, const float* bias, EpiAct act,
                             EpiMode mode, float* output, int ty0, int ty1);

/// AVX2 transforms over tile rows [ty0, ty1), vectorised across 8
/// consecutive tiles of one tile row (defined in winograd_avx2.cpp; baseline builds of that TU
/// forward to the scalar versions). Must only be called when
/// simd::active() == Level::kAvx2; the input form additionally needs
/// tiles_w(geom) >= 8 and the output form out_w()/kTileOut >= 8, so at
/// least one full register block fits per tile row.
void transform_input_avx2(const float* image, const ConvGeometry& geom,
                          float* v, std::size_t ld, std::size_t col_offset,
                          int ty0, int ty1);
void transform_output_avx2(const float* m, std::size_t ld,
                           std::size_t col_offset, const ConvGeometry& geom,
                           int out_c, const float* bias, EpiAct act,
                           EpiMode mode, float* output, int ty0, int ty1);

}  // namespace ocb::winograd::detail
