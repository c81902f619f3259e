#include "tensor/winograd.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/simd.hpp"
#include "tensor/winograd_kernels.hpp"

namespace ocb::winograd {

void transform_weights(const float* weight, int out_c, int in_c, float* u) {
  const std::size_t kc =
      static_cast<std::size_t>(out_c) * static_cast<std::size_t>(in_c);
  for (int k = 0; k < out_c; ++k) {
    for (int c = 0; c < in_c; ++c) {
      const float* g = weight +
                       (static_cast<std::size_t>(k) * in_c + c) * 9;
      // Columns first: t = G g (4×3), then rows: U = t Gᵀ (4×4).
      float t[4][3];
      for (int col = 0; col < 3; ++col) {
        const float x[3] = {g[col], g[3 + col], g[6 + col]};
        float y[4];
        detail::g_mul(x, y);
        for (int row = 0; row < 4; ++row) t[row][col] = y[row];
      }
      const std::size_t at = static_cast<std::size_t>(k) * in_c + c;
      for (int row = 0; row < 4; ++row) {
        float y[4];
        detail::g_mul(t[row], y);
        for (int col = 0; col < 4; ++col)
          u[static_cast<std::size_t>(row * 4 + col) * kc + at] = y[col];
      }
    }
  }
}

void pack_weights(const float* weight, int out_c, int in_c,
                  std::vector<PackedA>& panels) {
  const std::size_t kc =
      static_cast<std::size_t>(out_c) * static_cast<std::size_t>(in_c);
  std::vector<float> u(static_cast<std::size_t>(kTileElems) * kc);
  transform_weights(weight, out_c, in_c, u.data());
  panels.resize(static_cast<std::size_t>(kTileElems));
  for (int xi = 0; xi < kTileElems; ++xi) {
    panels[static_cast<std::size_t>(xi)].pack(
        u.data() + static_cast<std::size_t>(xi) * kc,
        static_cast<std::size_t>(out_c), static_cast<std::size_t>(in_c));
  }
}

namespace {

/// Floats of V + M per tile column.
std::size_t col_floats(const ConvGeometry& geom, int out_c) noexcept {
  return static_cast<std::size_t>(kTileElems) *
         (static_cast<std::size_t>(geom.in_c) + static_cast<std::size_t>(out_c));
}

}  // namespace

std::size_t block_count(const ConvGeometry& geom, int out_c,
                        int batch) noexcept {
  const std::size_t rows = static_cast<std::size_t>(tiles_h(geom)) *
                           static_cast<std::size_t>(std::max(1, batch));
  const std::size_t tw = static_cast<std::size_t>(std::max(1, tiles_w(geom)));
  const std::size_t u_bytes = static_cast<std::size_t>(kTileElems) *
                              static_cast<std::size_t>(geom.in_c) *
                              static_cast<std::size_t>(out_c) * sizeof(float);
  const bool u_cached = u_bytes <= kBlockBudgetBytes;
  std::size_t cols =
      kBlockBudgetBytes / (col_floats(geom, out_c) * sizeof(float));
  if (!u_cached) cols = std::max(cols, kBlockMinCols);
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

std::size_t block_slot_floats(const ConvGeometry& geom, int out_c,
                              int batch) noexcept {
  const std::size_t rows = static_cast<std::size_t>(tiles_h(geom)) *
                           static_cast<std::size_t>(std::max(1, batch));
  const std::size_t blocks = block_count(geom, out_c, batch);
  return col_floats(geom, out_c) * ((rows + blocks - 1) / blocks) *
         static_cast<std::size_t>(tiles_w(geom));
}

std::size_t scratch_floats(const ConvGeometry& geom, int out_c,
                           int batch) noexcept {
  std::size_t most = 0;
  for (int b = 1; b <= std::max(1, batch); ++b) {
    most = std::max(most, fused_panel_buffers(block_count(geom, out_c, b)) *
                              block_slot_floats(geom, out_c, b));
  }
  return most;
}

namespace detail {

void transform_input_scalar(const float* image, const ConvGeometry& geom,
                            float* v, std::size_t ld, std::size_t col_offset,
                            int ty0, int ty1) {
  const int h = geom.in_h, w = geom.in_w, pad = geom.pad;
  const int tw = tiles_w(geom);
  const std::size_t plane =
      static_cast<std::size_t>(geom.in_c) * ld;  // stride between xi matrices
  for (int c = 0; c < geom.in_c; ++c) {
    const float* src = image + static_cast<std::size_t>(c) * h * w;
    float* vc = v + static_cast<std::size_t>(c) * ld + col_offset;
    for (int ty = ty0; ty < ty1; ++ty) {
      const int iy0 = ty * kTileOut - pad;
      for (int tx = 0; tx < tw; ++tx) {
        input_tile_scalar(src, h, w, iy0, tx * kTileOut - pad, vc, plane,
                          static_cast<std::size_t>(ty - ty0) * tw + tx);
      }
    }
  }
}

void transform_output_scalar(const float* m, std::size_t ld,
                             std::size_t col_offset, const ConvGeometry& geom,
                             int out_c, const float* bias, EpiAct act,
                             EpiMode mode, float* output, int ty0, int ty1) {
  const int oh = geom.out_h(), ow = geom.out_w();
  const int tw = tiles_w(geom);
  const std::size_t plane = static_cast<std::size_t>(out_c) * ld;
  for (int k = 0; k < out_c; ++k) {
    const float* mk = m + static_cast<std::size_t>(k) * ld + col_offset;
    float* dst = output + static_cast<std::size_t>(k) * oh * ow;
    const float bk = bias != nullptr ? bias[k] : 0.0f;
    for (int ty = ty0; ty < ty1; ++ty) {
      for (int tx = 0; tx < tw; ++tx) {
        inverse_tile_scalar(mk, plane,
                            static_cast<std::size_t>(ty - ty0) * tw + tx,
                            ty * kTileOut, tx * kTileOut, oh, ow, bk, act,
                            mode, dst);
      }
    }
  }
}

}  // namespace detail

void transform_input(const float* image, const ConvGeometry& geom, float* v,
                     std::size_t ld, std::size_t col_offset, int ty0,
                     int ty1) {
  OCB_CHECK_MSG(applicable(geom),
                "winograd input transform needs a 3x3 stride-1 conv");
  OCB_CHECK_MSG(0 <= ty0 && ty0 <= ty1 && ty1 <= tiles_h(geom),
                "winograd input transform: tile rows out of range");
  // The AVX2 kernel computes 8 consecutive tiles per register block,
  // so it needs at least one full block per tile row.
  if (simd::active() == simd::Level::kAvx2 && tiles_w(geom) >= 8) {
    detail::transform_input_avx2(image, geom, v, ld, col_offset, ty0, ty1);
    return;
  }
  detail::transform_input_scalar(image, geom, v, ld, col_offset, ty0, ty1);
}

void transform_output(const float* m, std::size_t ld, std::size_t col_offset,
                      const ConvGeometry& geom, int out_c, const float* bias,
                      EpiAct act, EpiMode mode, float* output, int ty0,
                      int ty1) {
  OCB_CHECK_MSG(applicable(geom),
                "winograd output transform needs a 3x3 stride-1 conv");
  OCB_CHECK_MSG(0 <= ty0 && ty0 <= ty1 && ty1 <= tiles_h(geom),
                "winograd output transform: tile rows out of range");
  // The AVX2 kernel writes 16-pixel output row segments, so it needs 8
  // unclipped tiles per tile row. Accumulating (residual-fused) modes
  // run non-overlapping register blocks with a scalar row remainder;
  // plain stores keep the overlapping-tail trick (see winograd_avx2.cpp).
  if (simd::active() == simd::Level::kAvx2 && geom.out_w() / kTileOut >= 8) {
    detail::transform_output_avx2(m, ld, col_offset, geom, out_c, bias, act,
                                  mode, output, ty0, ty1);
    return;
  }
  detail::transform_output_scalar(m, ld, col_offset, geom, out_c, bias, act,
                                  mode, output, ty0, ty1);
}

}  // namespace ocb::winograd
