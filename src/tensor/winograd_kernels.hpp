// Internal contract between the Winograd transform dispatcher
// (winograd.cpp) and the AVX2 translation unit (winograd_avx2.cpp).
// Not installed as public API.
//
// The transform networks are templates over the value type T: the
// scalar path runs them on float, one tile at a time, and the AVX2
// path on an 8-lane vector holding 8 consecutive tiles. One
// definition means one operation order, so both paths transform to
// the same bits (the epilogues differ only in how SiLU and sigmoid
// round, see winograd_avx2.cpp). Every constant in Bᵀ and Aᵀ is a power of two or is
// applied as x + x·½ (1.5·x), so each product is exact and an FMA
// contraction of any product into its sum could not change a result.
#pragma once

#include <cstddef>

#include "tensor/winograd.hpp"

namespace ocb::winograd::detail {

// 1-D pieces of the transform triples. Each 2-D transform is the 1-D
// form applied first down the columns, then across the rows (the
// matrices are small enough that spelling the adds out beats a generic
// matmul by a wide margin and keeps the operation count minimal).

/// y = Bᵀ x. F(2,3): Bᵀ = [[1,0,-1,0],[0,1,1,0],[0,-1,1,0],[0,1,0,-1]].
/// F(4,3), points {0, −1, 1, ½, −2, ∞}:
///   Bᵀ = [[1, -3/2,   -2,  3/2, 1, 0],
///         [0,    1, -5/2,  1/2, 1, 0],
///         [0,   -1,  1/2,  5/2, 1, 0],
///         [0,   -2,   -1,    2, 1, 0],
///         [0,  1/2,   -1, -1/2, 1, 0],
///         [0,    1, -3/2,   -2, 3/2, 1]].
template <int M, class T>
inline void bt_mul(const T* x, T* y) noexcept {
  if constexpr (M == 2) {
    y[0] = x[0] - x[2];
    y[1] = x[1] + x[2];
    y[2] = x[2] - x[1];
    y[3] = x[1] - x[3];
  } else {
    static_assert(M == 4, "winograd tiles are 2 or 4");
    const T s = x[4] - x[2];
    const T d = x[3] - x[1];
    const T h = d * 0.5f;
    const T e = x[3] - x[2];
    const T f = x[3] + x[2];
    y[0] = ((x[0] - x[2]) + s) + (d + h);
    y[1] = (s - d) + (e + e * 0.5f);
    y[2] = (s + d) + (f + f * 0.5f);
    y[3] = s + (d + d);
    y[4] = s - h;
    y[5] = ((x[5] - x[3]) + (x[1] - x[3])) + (s + s * 0.5f);
  }
}

/// y = Aᵀ x. F(2,3): Aᵀ = [[1,1,1,0],[0,1,-1,-1]]. F(4,3):
///   Aᵀ = [[1,  1, 1,   1,  1, 0],
///         [0, -1, 1, 1/2, -2, 0],
///         [0,  1, 1, 1/4,  4, 0],
///         [0, -1, 1, 1/8, -8, 1]].
template <int M, class T>
inline void at_mul(const T* x, T* y) noexcept {
  if constexpr (M == 2) {
    y[0] = x[0] + x[1] + x[2];
    y[1] = x[1] - x[2] - x[3];
  } else {
    static_assert(M == 4, "winograd tiles are 2 or 4");
    const T p = x[2] + x[1];
    const T q = x[2] - x[1];
    y[0] = (x[0] + p) + (x[3] + x[4]);
    y[1] = q + (x[3] * 0.5f - x[4] * 2.0f);
    y[2] = p + (x[3] * 0.25f + x[4] * 4.0f);
    y[3] = (q + (x[3] * 0.125f - x[4] * 8.0f)) + x[5];
  }
}

/// V = Bᵀ d B of one α×α tile (α = M + 2), columns first, then rows;
/// element (row, col) of V goes to put(row·α + col, value).
template <int M, class T, class Put>
inline void input_tile(const T (&d)[M + 2][M + 2], Put&& put) noexcept {
  constexpr int a = M + 2;
  T t[a][a];
  for (int col = 0; col < a; ++col) {
    T x[a], y[a];
    for (int r = 0; r < a; ++r) x[r] = d[r][col];
    bt_mul<M>(x, y);
    for (int r = 0; r < a; ++r) t[r][col] = y[r];
  }
  for (int row = 0; row < a; ++row) {
    T y[a];
    bt_mul<M>(t[row], y);
    for (int col = 0; col < a; ++col) put(row * a + col, y[col]);
  }
}

/// Y = Aᵀ P A of one tile whose element xi is get(xi), columns first,
/// then rows.
template <int M, class T, class Get>
inline void inverse_tile(Get&& get, T (&y)[M][M]) noexcept {
  constexpr int a = M + 2;
  T t[M][a];
  for (int col = 0; col < a; ++col) {
    T x[a], z[M];
    for (int r = 0; r < a; ++r) x[r] = get(r * a + col);
    at_mul<M>(x, z);
    for (int r = 0; r < M; ++r) t[r][col] = z[r];
  }
  for (int row = 0; row < M; ++row) at_mul<M>(t[row], y[row]);
}

/// Fold one transformed output value into its pixel: bias, activation
/// and `mode` exactly as the GEMM epilogue combines them (residual
/// fusion preloads `out`). The scalar transforms finish through it;
/// the AVX2 path runs the vector form of the same epilogue.
inline void epi_pixel(float y, float bk, EpiAct act, EpiMode mode,
                      float& out) noexcept {
  switch (mode) {
    case EpiMode::kStore:
      out = apply_epi_act(act, y + bk);
      break;
    case EpiMode::kAccThenAct:
      out = apply_epi_act(act, out + y + bk);
      break;
    case EpiMode::kActThenAcc:
      out += apply_epi_act(act, y + bk);
      break;
  }
}

/// Scalar reference transforms over tile rows [ty0, ty1) — the
/// fallback and the oracle for the AVX2 path. Defined in winograd.cpp.
void transform_input_scalar(const float* image, const ConvGeometry& geom,
                            int tile, float* v, std::size_t ld,
                            std::size_t col_offset, int ty0, int ty1);
void transform_output_scalar(const float* m, std::size_t ld,
                             std::size_t col_offset, const ConvGeometry& geom,
                             int tile, int out_c, const float* bias,
                             EpiAct act, EpiMode mode, float* output, int ty0,
                             int ty1);

/// AVX2 transforms over tile rows [ty0, ty1), vectorised across 8
/// consecutive tiles of one tile row (defined in winograd_avx2.cpp;
/// baseline builds of that TU forward to the scalar versions). Must
/// only be called when simd::active() == Level::kAvx2. Rows of fewer
/// than 8 tiles, and clipped edge tiles, run as masked register blocks.
void transform_input_avx2(const float* image, const ConvGeometry& geom,
                          int tile, float* v, std::size_t ld,
                          std::size_t col_offset, int ty0, int ty1);
void transform_output_avx2(const float* m, std::size_t ld,
                           std::size_t col_offset, const ConvGeometry& geom,
                           int tile, int out_c, const float* bias, EpiAct act,
                           EpiMode mode, float* output, int ty0, int ty1);

}  // namespace ocb::winograd::detail
