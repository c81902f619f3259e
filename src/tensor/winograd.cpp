#include "tensor/winograd.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/simd.hpp"
#include "tensor/winograd_kernels.hpp"

namespace ocb::winograd {

namespace {

/// G (α × 3) of each tile. F(2×2): points {0, 1, −1, ∞}; F(4×4):
/// {0, −1, 1, ½, −2, ∞} (winograd_kernels.hpp has the matching Bᵀ, Aᵀ).
constexpr double kG2[4][3] = {
    {1.0, 0.0, 0.0}, {0.5, 0.5, 0.5}, {0.5, -0.5, 0.5}, {0.0, 0.0, 1.0}};
constexpr double kG4[6][3] = {{1.0, 0.0, 0.0},
                              {-1.0 / 3, 1.0 / 3, -1.0 / 3},
                              {1.0 / 3, 1.0 / 3, 1.0 / 3},
                              {-16.0 / 15, -8.0 / 15, -4.0 / 15},
                              {1.0 / 15, -2.0 / 15, 4.0 / 15},
                              {0.0, 0.0, 1.0}};

void check_tile(int tile) {
  OCB_CHECK_MSG(tile_legal(tile), "winograd tile must be 2 or 4");
}

}  // namespace

void transform_weights(const float* weight, int out_c, int in_c, int tile,
                       float* u) {
  check_tile(tile);
  const int a = tile_in(tile);
  const double(*g_mat)[3] = tile == 2 ? kG2 : kG4;
  const std::size_t kc =
      static_cast<std::size_t>(out_c) * static_cast<std::size_t>(in_c);
  for (int k = 0; k < out_c; ++k) {
    for (int c = 0; c < in_c; ++c) {
      const float* g = weight + (static_cast<std::size_t>(k) * in_c + c) * 9;
      // t = G g (α × 3), then U = t Gᵀ (α × α), in double.
      double t[6][3];
      for (int row = 0; row < a; ++row)
        for (int col = 0; col < 3; ++col)
          t[row][col] = g_mat[row][0] * g[col] + g_mat[row][1] * g[3 + col] +
                        g_mat[row][2] * g[6 + col];
      const std::size_t at = static_cast<std::size_t>(k) * in_c + c;
      for (int row = 0; row < a; ++row)
        for (int col = 0; col < a; ++col)
          u[static_cast<std::size_t>(row * a + col) * kc + at] =
              static_cast<float>(t[row][0] * g_mat[col][0] +
                                 t[row][1] * g_mat[col][1] +
                                 t[row][2] * g_mat[col][2]);
    }
  }
}

void pack_weights(const float* weight, int out_c, int in_c, int tile,
                  std::vector<PackedA>& panels) {
  const std::size_t kc =
      static_cast<std::size_t>(out_c) * static_cast<std::size_t>(in_c);
  const std::size_t elems = static_cast<std::size_t>(tile_elems(tile));
  std::vector<float> u(elems * kc);
  transform_weights(weight, out_c, in_c, tile, u.data());
  panels.resize(elems);
  for (std::size_t xi = 0; xi < elems; ++xi) {
    panels[xi].pack(u.data() + xi * kc, static_cast<std::size_t>(out_c),
                    static_cast<std::size_t>(in_c));
  }
}

namespace {

/// Floats of V + M per tile column.
std::size_t col_floats(const ConvGeometry& geom, int out_c,
                       int tile) noexcept {
  return static_cast<std::size_t>(tile_elems(tile)) *
         (static_cast<std::size_t>(geom.in_c) + static_cast<std::size_t>(out_c));
}

}  // namespace

std::size_t block_count(const ConvGeometry& geom, int out_c, int batch,
                        int tile) noexcept {
  const std::size_t elems = static_cast<std::size_t>(tile_elems(tile));
  const std::size_t rows = static_cast<std::size_t>(tiles_h(geom, tile)) *
                           static_cast<std::size_t>(std::max(1, batch));
  const std::size_t tw =
      static_cast<std::size_t>(std::max(1, tiles_w(geom, tile)));
  const std::size_t u_bytes = elems * static_cast<std::size_t>(geom.in_c) *
                              static_cast<std::size_t>(out_c) * sizeof(float);
  const bool u_cached = u_bytes <= kUCachedBytes;
  std::size_t cols =
      kBlockBudgetBytes / (col_floats(geom, out_c, tile) * sizeof(float));
  if (!u_cached) cols = std::max(cols, kBlockMinElems / elems);
  const std::size_t bh = std::clamp<std::size_t>(cols / tw, 1, rows);
  std::size_t blocks = (rows + bh - 1) / bh;
  const std::size_t executors = ThreadPool::global().executors();
  if (u_cached && rows >= executors) blocks = std::max(blocks, executors);
  if (blocks >= executors) {
    // Waves run fused_panel_buffers(blocks) blocks at a time; a last
    // wave of one short block would idle the rest of the pool.
    const std::size_t wave = fused_panel_buffers(blocks);
    blocks = std::min(rows, (blocks + wave - 1) / wave * wave);
  }
  return blocks;
}

std::size_t block_slot_floats(const ConvGeometry& geom, int out_c, int batch,
                              int tile) noexcept {
  const std::size_t rows = static_cast<std::size_t>(tiles_h(geom, tile)) *
                           static_cast<std::size_t>(std::max(1, batch));
  const std::size_t blocks = block_count(geom, out_c, batch, tile);
  return col_floats(geom, out_c, tile) * ((rows + blocks - 1) / blocks) *
         static_cast<std::size_t>(tiles_w(geom, tile));
}

std::size_t scratch_floats(const ConvGeometry& geom, int out_c, int batch,
                           int tile) noexcept {
  std::size_t most = 0;
  for (int b = 1; b <= std::max(1, batch); ++b) {
    most = std::max(most,
                    fused_panel_buffers(block_count(geom, out_c, b, tile)) *
                        block_slot_floats(geom, out_c, b, tile));
  }
  return most;
}

namespace detail {
namespace {

/// Transform the α×α input tile at (iy0, ix0) of one h×w plane
/// (positions outside the plane gather zeros, matching im2col's
/// padding) and scatter its α² elements into column `p` of the α²
/// per-element matrices rooted at `vc`, `plane` floats apart.
template <int M>
void input_tile_scalar(const float* src, int h, int w, int iy0,
                              int ix0, float* vc, std::size_t plane,
                              std::size_t p) noexcept {
  constexpr int a = M + 2;
  float d[a][a];
  if (iy0 >= 0 && ix0 >= 0 && iy0 + a <= h && ix0 + a <= w) {
    // Interior tile: α contiguous row loads.
    const float* row = src + static_cast<std::size_t>(iy0) * w + ix0;
    for (int r = 0; r < a; ++r, row += w)
      for (int col = 0; col < a; ++col) d[r][col] = row[col];
  } else {
    // Border tile: gather with zero padding.
    for (int r = 0; r < a; ++r) {
      const int sy = iy0 + r;
      for (int col = 0; col < a; ++col) {
        const int sx = ix0 + col;
        d[r][col] = (sy >= 0 && sy < h && sx >= 0 && sx < w)
                        ? src[static_cast<std::size_t>(sy) * w + sx]
                        : 0.0f;
      }
    }
  }
  input_tile<M>(d, [&](int xi, float y) {
    vc[static_cast<std::size_t>(xi) * plane + p] = y;
  });
}

/// Inverse-transform column `p` of the α² product matrices rooted at
/// `mk` (`plane` floats apart) into the M×M output tile at (oy0, ox0),
/// fusing the bias add and activation; rows/columns past oh/ow are
/// clipped. `mode` combines the tile with the existing output exactly
/// as the GEMM epilogue does (residual fusion preloads dst).
template <int M>
void inverse_tile_scalar(const float* mk, std::size_t plane,
                                std::size_t p, int oy0, int ox0, int oh,
                                int ow, float bk, EpiAct act, EpiMode mode,
                                float* dst) noexcept {
  float y[M][M];
  inverse_tile<M>(
      [&](int xi) { return mk[static_cast<std::size_t>(xi) * plane + p]; },
      y);
  for (int dy = 0; dy < M; ++dy) {
    const int oy = oy0 + dy;
    if (oy >= oh) break;
    float* out_row = dst + static_cast<std::size_t>(oy) * ow;
    for (int dx = 0; dx < M; ++dx) {
      const int ox = ox0 + dx;
      if (ox >= ow) break;
      epi_pixel(y[dy][dx], bk, act, mode, out_row[ox]);
    }
  }
}

template <int M>
void input_scalar(const float* image, const ConvGeometry& geom, float* v,
                  std::size_t ld, std::size_t col_offset, int ty0, int ty1) {
  const int h = geom.in_h, w = geom.in_w, pad = geom.pad;
  const int tw = tiles_w(geom, M);
  const std::size_t plane =
      static_cast<std::size_t>(geom.in_c) * ld;  // stride between xi matrices
  for (int c = 0; c < geom.in_c; ++c) {
    const float* src = image + static_cast<std::size_t>(c) * h * w;
    float* vc = v + static_cast<std::size_t>(c) * ld + col_offset;
    for (int ty = ty0; ty < ty1; ++ty) {
      const int iy0 = ty * M - pad;
      for (int tx = 0; tx < tw; ++tx) {
        input_tile_scalar<M>(src, h, w, iy0, tx * M - pad, vc, plane,
                             static_cast<std::size_t>(ty - ty0) * tw + tx);
      }
    }
  }
}

template <int M>
void output_scalar(const float* m, std::size_t ld, std::size_t col_offset,
                   const ConvGeometry& geom, int out_c, const float* bias,
                   EpiAct act, EpiMode mode, float* output, int ty0,
                   int ty1) {
  const int oh = geom.out_h(), ow = geom.out_w();
  const int tw = tiles_w(geom, M);
  const std::size_t plane = static_cast<std::size_t>(out_c) * ld;
  for (int k = 0; k < out_c; ++k) {
    const float* mk = m + static_cast<std::size_t>(k) * ld + col_offset;
    float* dst = output + static_cast<std::size_t>(k) * oh * ow;
    const float bk = bias != nullptr ? bias[k] : 0.0f;
    for (int ty = ty0; ty < ty1; ++ty) {
      for (int tx = 0; tx < tw; ++tx) {
        inverse_tile_scalar<M>(mk, plane,
                               static_cast<std::size_t>(ty - ty0) * tw + tx,
                               ty * M, tx * M, oh, ow, bk, act, mode, dst);
      }
    }
  }
}

}  // namespace

void transform_input_scalar(const float* image, const ConvGeometry& geom,
                            int tile, float* v, std::size_t ld,
                            std::size_t col_offset, int ty0, int ty1) {
  if (tile == 2) {
    input_scalar<2>(image, geom, v, ld, col_offset, ty0, ty1);
  } else {
    input_scalar<4>(image, geom, v, ld, col_offset, ty0, ty1);
  }
}

void transform_output_scalar(const float* m, std::size_t ld,
                             std::size_t col_offset, const ConvGeometry& geom,
                             int tile, int out_c, const float* bias,
                             EpiAct act, EpiMode mode, float* output, int ty0,
                             int ty1) {
  if (tile == 2) {
    output_scalar<2>(m, ld, col_offset, geom, out_c, bias, act, mode, output,
                     ty0, ty1);
  } else {
    output_scalar<4>(m, ld, col_offset, geom, out_c, bias, act, mode, output,
                     ty0, ty1);
  }
}

}  // namespace detail

void transform_input(const float* image, const ConvGeometry& geom, int tile,
                     float* v, std::size_t ld, std::size_t col_offset,
                     int ty0, int ty1) {
  OCB_CHECK_MSG(applicable(geom),
                "winograd input transform needs a 3x3 stride-1 conv");
  check_tile(tile);
  OCB_CHECK_MSG(0 <= ty0 && ty0 <= ty1 && ty1 <= tiles_h(geom, tile),
                "winograd input transform: tile rows out of range");
  if (simd::active() == simd::Level::kAvx2) {
    detail::transform_input_avx2(image, geom, tile, v, ld, col_offset, ty0,
                                 ty1);
    return;
  }
  detail::transform_input_scalar(image, geom, tile, v, ld, col_offset, ty0,
                                 ty1);
}

void transform_output(const float* m, std::size_t ld, std::size_t col_offset,
                      const ConvGeometry& geom, int tile, int out_c,
                      const float* bias, EpiAct act, EpiMode mode,
                      float* output, int ty0, int ty1) {
  OCB_CHECK_MSG(applicable(geom),
                "winograd output transform needs a 3x3 stride-1 conv");
  check_tile(tile);
  OCB_CHECK_MSG(0 <= ty0 && ty0 <= ty1 && ty1 <= tiles_h(geom, tile),
                "winograd output transform: tile rows out of range");
  if (simd::active() == simd::Level::kAvx2) {
    detail::transform_output_avx2(m, ld, col_offset, geom, tile, out_c, bias,
                                  act, mode, output, ty0, ty1);
    return;
  }
  detail::transform_output_scalar(m, ld, col_offset, geom, tile, out_c, bias,
                                  act, mode, output, ty0, ty1);
}

}  // namespace ocb::winograd
