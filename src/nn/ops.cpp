#include "nn/ops.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "nn/ops_kernels.hpp"
#include "parallel/parallel_for.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_kernels.hpp"
#include "tensor/winograd.hpp"

namespace ocb::nn {

EpiAct to_epilogue_act(Act act) noexcept {
  switch (act) {
    case Act::kNone: return EpiAct::kNone;
    case Act::kRelu: return EpiAct::kRelu;
    case Act::kLeakyRelu: return EpiAct::kLeakyRelu;
    case Act::kSilu: return EpiAct::kSilu;
    case Act::kSigmoid: return EpiAct::kSigmoid;
  }
  return EpiAct::kNone;
}

namespace {

/// Floats of work below which one pool task is not worth its wake and
/// claim: an op with less than this per executor stays on the calling
/// thread. 256 KiB of copy per task; a quarter of that ran the scale-0.25
/// models slower on a 4-vCPU AVX2 host, the copies paying more in wakes
/// than they saved.
constexpr std::size_t kTaskFloats = 65536;

/// fn(b, ch) over the `batch`·`c` planes of an op, image-major, each
/// `plane_floats` of work, at least kTaskFloats per pool task.
template <typename Fn>
void for_planes(int batch, int c, std::size_t plane_floats, Fn&& fn) {
  const std::size_t cs = static_cast<std::size_t>(c);
  const std::size_t grain =
      kTaskFloats / std::max<std::size_t>(1, plane_floats);
  parallel_for(
      0, static_cast<std::size_t>(batch) * cs,
      [&](std::size_t t) {
        fn(static_cast<int>(t / cs), static_cast<int>(t % cs));
      },
      std::max<std::size_t>(1, grain));
}

/// fn(b, lo, hi) over [0, n) of each of `batch` images in kTaskFloats
/// blocks, one pool task per block.
template <typename Fn>
void for_blocks(int batch, std::size_t n, Fn&& fn) {
  const std::size_t per = (n + kTaskFloats - 1) / kTaskFloats;
  parallel_for(
      0, static_cast<std::size_t>(batch) * per,
      [&](std::size_t t) {
        const std::size_t lo = (t % per) * kTaskFloats;
        fn(static_cast<int>(t / per), lo, std::min(n, lo + kTaskFloats));
      },
      /*grain=*/1);
}

}  // namespace

void apply_activation(Act act, float* data, std::size_t n) noexcept {
  const EpiAct epi_act = to_epilogue_act(act);
  if (epi_act == EpiAct::kNone) return;
  for_blocks(1, n, [&](int, std::size_t lo, std::size_t hi) {
    detail::act_row(data + lo, hi - lo, epi_act);
  });
}

void copy_images(const float* src, std::size_t src_stride, int batch,
                 std::size_t n, float* dst, std::size_t dst_stride) {
  for_blocks(batch, n, [&](int b, std::size_t lo, std::size_t hi) {
    const std::size_t bi = static_cast<std::size_t>(b);
    std::memcpy(dst + bi * dst_stride + lo, src + bi * src_stride + lo,
                (hi - lo) * sizeof(float));
  });
}

void conv2d(const float* input, const ConvGeometry& geom, int out_c,
            const float* weight, const float* bias, Act act, float* output,
            ConvScratch& scratch) {
  scratch.arena.reset();
  float* col = scratch.arena.alloc_floats(geom.col_rows() * geom.col_cols());
  im2col(input, geom, col);
  gemm_ex(weight, col, output, static_cast<std::size_t>(out_c),
          geom.col_rows(), geom.col_cols(), /*accumulate=*/false,
          GemmEpilogue{bias, to_epilogue_act(act)});
}

void conv2d_winograd(const float* input, std::size_t in_stride, int batch,
                     const ConvGeometry& geom, int tile,
                     const std::vector<PackedA>& u_panels, const float* bias,
                     Act act, float* output, std::size_t out_stride,
                     ConvScratch& scratch, EpiMode mode) {
  OCB_CHECK_MSG(batch >= 1, "conv2d_winograd needs at least one image");
  OCB_CHECK_MSG(winograd::applicable(geom),
                "conv2d_winograd needs a 3x3 stride-1 conv");
  OCB_CHECK_MSG(winograd::tile_legal(tile) &&
                    u_panels.size() ==
                        static_cast<std::size_t>(winograd::tile_elems(tile)),
                "conv2d_winograd needs (tile+2)^2 panels of a 2 or 4 tile");
  const int out_c = static_cast<int>(u_panels.front().rows());
  const std::size_t in_c = static_cast<std::size_t>(geom.in_c);
  const std::size_t th =
      static_cast<std::size_t>(winograd::tiles_h(geom, tile));
  const std::size_t tw =
      static_cast<std::size_t>(winograd::tiles_w(geom, tile));
  const std::size_t rows = th * static_cast<std::size_t>(batch);
  // Blocks of global tile rows g = b·th + ty (winograd::block_count),
  // heights differing by at most one row.
  const std::size_t blocks =
      winograd::block_count(geom, out_c, batch, tile);
  const std::size_t bufs = fused_panel_buffers(blocks);
  const std::size_t slot_floats =
      winograd::block_slot_floats(geom, out_c, batch, tile);
  scratch.arena.reset();
  float* slots = scratch.arena.alloc_floats(bufs * slot_floats);
  const EpiAct epi_act = to_epilogue_act(act);

  // fn(b, ty0, ty1, col) over the image segments of rows [g0, g1): one
  // call per image the block touches, or — pooled — one per tile row
  // across the pool.
  const auto each_segment = [&](std::size_t g0, std::size_t g1, bool pooled,
                                const auto& fn) {
    if (pooled) {
      parallel_for(
          g0, g1,
          [&](std::size_t g) {
            const int ty = static_cast<int>(g % th);
            fn(g / th, ty, ty + 1, (g - g0) * tw);
          },
          /*grain=*/1);
      return;
    }
    for (std::size_t g = g0; g < g1;) {
      const std::size_t b = g / th;
      const std::size_t ty0 = g - b * th;
      const std::size_t ty1 = std::min(th, ty0 + (g1 - g));
      fn(b, static_cast<int>(ty0), static_cast<int>(ty1), (g - g0) * tw);
      g += ty1 - ty0;
    }
  };

  const auto run_block = [&](std::size_t s, float* v, bool inner_parallel) {
    const std::size_t g0 = s * rows / blocks;
    const std::size_t g1 = (s + 1) * rows / blocks;
    const std::size_t cols = (g1 - g0) * tw;
    float* m = v + u_panels.size() * in_c * cols;
    each_segment(g0, g1, inner_parallel,
                 [&](std::size_t b, int ty0, int ty1, std::size_t col) {
                   winograd::transform_input(input + b * in_stride, geom, tile,
                                             v, cols, col, ty0, ty1);
                 });
    // Bias + activation wait for the inverse transform: the GEMMs run
    // in the transformed domain, where neither distributes.
    GemmConfig config;
    config.parallel = inner_parallel;
    for (std::size_t xi = 0; xi < u_panels.size(); ++xi) {
      gemm_packed(u_panels[xi], v + xi * in_c * cols,
                  m + xi * static_cast<std::size_t>(out_c) * cols, cols,
                  /*accumulate=*/false, GemmEpilogue{}, config);
    }
    each_segment(g0, g1, inner_parallel,
                 [&](std::size_t b, int ty0, int ty1, std::size_t col) {
                   winograd::transform_output(m, cols, col, geom, tile, out_c,
                                              bias, epi_act, mode,
                                              output + b * out_stride, ty0,
                                              ty1);
                 });
  };
  ocb::detail::stripe_waves(blocks, bufs, slots, slot_floats,
                            /*parallel=*/true, run_block);
}

void dwconv2d(const float* input, std::size_t in_stride, int batch,
              const ConvGeometry& geom, const float* weight,
              const float* bias, Act act, float* output,
              std::size_t out_stride) {
  const int oh = geom.out_h();
  const int ow = geom.out_w();
  const std::size_t in_plane = static_cast<std::size_t>(geom.in_h) * geom.in_w;
  const std::size_t out_plane = static_cast<std::size_t>(oh) * ow;
  const EpiAct epi_act = to_epilogue_act(act);
  const std::size_t taps =
      static_cast<std::size_t>(geom.kernel_h) * geom.kernel_w;
  for_planes(batch, geom.in_c, out_plane * taps, [&](int b, int c) {
    const float* src = input + static_cast<std::size_t>(b) * in_stride +
                       static_cast<std::size_t>(c) * in_plane;
    const float* w = weight + static_cast<std::size_t>(c) * taps;
    float* dst = output + static_cast<std::size_t>(b) * out_stride +
                 static_cast<std::size_t>(c) * out_plane;
    const float bc = bias != nullptr ? bias[c] : 0.0f;
    for (int y = 0; y < oh; ++y) {
      float* row = dst + static_cast<std::size_t>(y) * ow;
      for (int x = 0; x < ow; ++x) {
        float acc = bc;
        for (int ky = 0; ky < geom.kernel_h; ++ky) {
          const int sy = y * geom.stride - geom.pad + ky;
          if (sy < 0 || sy >= geom.in_h) continue;
          for (int kx = 0; kx < geom.kernel_w; ++kx) {
            const int sx = x * geom.stride - geom.pad + kx;
            if (sx < 0 || sx >= geom.in_w) continue;
            acc += w[ky * geom.kernel_w + kx] *
                   src[static_cast<std::size_t>(sy) * geom.in_w + sx];
          }
        }
        row[x] = acc;
      }
      detail::act_row(row, static_cast<std::size_t>(ow), epi_act);
    }
  });
}

void deconv_phase_weights(const float* weight, int in_c, int out_c,
                          float* phase) {
  const std::size_t k = static_cast<std::size_t>(in_c) * 4;
  for (int py = 0; py < 2; ++py) {
    for (int px = 0; px < 2; ++px) {
      for (int o = 0; o < out_c; ++o) {
        const int p = (py * 2 + px) * out_c + o;
        float* row = phase + static_cast<std::size_t>(p) * k;
        for (int c = 0; c < in_c; ++c) {
          const float* w =
              weight + (static_cast<std::size_t>(c) * out_c + o) * 16;
          for (int ty = 0; ty < 2; ++ty)
            for (int tx = 0; tx < 2; ++tx)
              row[c * 4 + ty * 2 + tx] =
                  w[(3 - py - 2 * ty) * 4 + (3 - px - 2 * tx)];
        }
      }
    }
  }
}

void deconv_interleave(const float* conv, std::size_t conv_stride,
                       int batch, int out_c, int in_h, int in_w,
                       float* output, std::size_t out_stride) {
  const std::size_t grid_w = static_cast<std::size_t>(in_w) + 1;
  const std::size_t grid = (static_cast<std::size_t>(in_h) + 1) * grid_w;
  const std::size_t out_w = static_cast<std::size_t>(in_w) * 2;
  const std::size_t out_plane = static_cast<std::size_t>(in_h) * 2 * out_w;
  for_planes(batch, out_c, out_plane, [&](int b, int o) {
    const float* img = conv + static_cast<std::size_t>(b) * conv_stride;
    float* dst = output + static_cast<std::size_t>(b) * out_stride +
                 static_cast<std::size_t>(o) * out_plane;
    for (int py = 0; py < 2; ++py) {
      // Output row 2y + py zips phase (py, 0) at column x with phase
      // (py, 1) at column x + 1, both on grid row y + py.
      const float* even =
          img + static_cast<std::size_t>((py * 2) * out_c + o) * grid;
      const float* odd =
          img + static_cast<std::size_t>((py * 2 + 1) * out_c + o) * grid + 1;
      for (int y = 0; y < in_h; ++y) {
        const std::size_t g = static_cast<std::size_t>(y + py) * grid_w;
        detail::interleave_row(
            even + g, odd + g, static_cast<std::size_t>(in_w),
            dst + static_cast<std::size_t>(2 * y + py) * out_w);
      }
    }
  });
}

void maxpool2d(const float* input, std::size_t in_stride, int batch,
               const ConvGeometry& geom, float* output,
               std::size_t out_stride) {
  const int oh = geom.out_h();
  const int ow = geom.out_w();
  const int k = geom.kernel_w;
  const int s = geom.stride;
  const std::size_t in_plane = static_cast<std::size_t>(geom.in_h) * geom.in_w;
  const std::size_t out_plane = static_cast<std::size_t>(oh) * ow;
  // Output columns per pass: one pass's padded row must fit `padded`.
  constexpr int kRowFloats = 2048;
  OCB_CHECK_MSG(k >= 1 && k <= kRowFloats / 2 && s >= 1,
                "maxpool2d kernel outside the row buffer");
  const int seg_cols = (kRowFloats - k) / s + 1;
  const float lowest = std::numeric_limits<float>::lowest();
  const std::size_t taps =
      static_cast<std::size_t>(geom.kernel_h) * geom.kernel_w;
  for_planes(batch, geom.in_c, out_plane * taps, [&](int b, int c) {
    const float* src = input + static_cast<std::size_t>(b) * in_stride +
                       static_cast<std::size_t>(c) * in_plane;
    float* dst = output + static_cast<std::size_t>(b) * out_stride +
                 static_cast<std::size_t>(c) * out_plane;
    float padded[kRowFloats];
    // Separable max: per output row, the column max of its valid input
    // rows lands in a row padded with lowest(), then the row max over
    // each k-wide window. Padding taps then never win, and a window of
    // -inf yields lowest(), as a max seeded with lowest() does.
    for (int y = 0; y < oh; ++y) {
      const int y0 = std::max(0, y * s - geom.pad);
      const int y1 = std::min(geom.in_h, y * s - geom.pad + geom.kernel_h);
      for (int x0 = 0; x0 < ow; x0 += seg_cols) {
        const int n = std::min(seg_cols, ow - x0);
        const int lo = x0 * s - geom.pad;  // input column of padded[0]
        const int len = s * (n - 1) + k;
        const int v0 = std::max(0, lo);
        const int v1 = std::min(geom.in_w, lo + len);
        std::fill_n(padded, len, lowest);
        for (int sy = y0; sy < y1 && v0 < v1; ++sy)
          detail::max_row(padded + (v0 - lo),
                          src + static_cast<std::size_t>(sy) * geom.in_w + v0,
                          static_cast<std::size_t>(v1 - v0));
        detail::pool_row(padded, k, s, n,
                         dst + static_cast<std::size_t>(y) * ow + x0);
      }
    }
  });
}

void upsample2x_nearest(const float* input, std::size_t in_stride, int batch,
                        int c, int h, int w, float* output,
                        std::size_t out_stride) {
  const std::size_t in_plane = static_cast<std::size_t>(h) * w;
  const std::size_t ow = static_cast<std::size_t>(w) * 2;
  for_planes(batch, c, in_plane * 4, [&](int b, int ch) {
    const float* src = input + static_cast<std::size_t>(b) * in_stride +
                       static_cast<std::size_t>(ch) * in_plane;
    float* dst = output + static_cast<std::size_t>(b) * out_stride +
                 static_cast<std::size_t>(ch) * in_plane * 4;
    for (int y = 0; y < h; ++y) {
      float* row = dst + static_cast<std::size_t>(2 * y) * ow;
      const float* s = src + static_cast<std::size_t>(y) * w;
      detail::interleave_row(s, s, static_cast<std::size_t>(w), row);
      std::memcpy(row + ow, row, ow * sizeof(float));
    }
  });
}

void concat_channels(const std::vector<const float*>& srcs,
                     const std::vector<int>& channels, int h, int w,
                     float* output) {
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  float* dst = output;
  for (std::size_t i = 0; i < srcs.size(); ++i) {
    const std::size_t count = static_cast<std::size_t>(channels[i]) * plane;
    copy_images(srcs[i], count, 1, count, dst, count);
    dst += count;
  }
}

void add_elementwise(const float* a, const float* b, std::size_t n,
                     float* output, Act act) {
  const EpiAct epi_act = to_epilogue_act(act);
  for_blocks(1, n, [&](int, std::size_t lo, std::size_t hi) {
    detail::add_row(a + lo, b + lo, hi - lo, output + lo);
    detail::act_row(output + lo, hi - lo, epi_act);
  });
}

void slice_channels(const float* input, std::size_t in_stride, int batch,
                    int h, int w, int begin, int end, float* output,
                    std::size_t out_stride) {
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  copy_images(input + static_cast<std::size_t>(begin) * plane, in_stride,
              batch, static_cast<std::size_t>(end - begin) * plane, output,
              out_stride);
}

void global_avg_pool(const float* input, std::size_t in_stride, int batch,
                     int c, int h, int w, float* output,
                     std::size_t out_stride) {
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  for_planes(batch, c, plane, [&](int b, int ch) {
    const float* src = input + static_cast<std::size_t>(b) * in_stride +
                       static_cast<std::size_t>(ch) * plane;
    double acc = 0.0;
    for (std::size_t i = 0; i < plane; ++i) acc += src[i];
    output[static_cast<std::size_t>(b) * out_stride +
           static_cast<std::size_t>(ch)] =
        static_cast<float>(acc / static_cast<double>(plane));
  });
}

void linear(const float* input, std::size_t in_features, int out_features,
            const float* weight, const float* bias, Act act, float* output) {
  for (int o = 0; o < out_features; ++o) {
    const float* w = weight + static_cast<std::size_t>(o) * in_features;
    float acc = bias != nullptr ? bias[o] : 0.0f;
    for (std::size_t i = 0; i < in_features; ++i) acc += w[i] * input[i];
    output[o] = apply_epi_act(to_epilogue_act(act), acc);
  }
}

}  // namespace ocb::nn
