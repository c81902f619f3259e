#include "nn/ops.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

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

inline float activate_scalar(Act act, float v) noexcept {
  switch (act) {
    case Act::kNone: return v;
    case Act::kRelu: return v < 0.0f ? 0.0f : v;
    case Act::kLeakyRelu: return v < 0.0f ? kLeakySlope * v : v;
    case Act::kSilu: return fast_silu(v);
    case Act::kSigmoid: return fast_sigmoid(v);
  }
  return v;
}

}  // namespace

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
                     const ConvGeometry& geom,
                     const std::vector<PackedA>& u_panels, const float* bias,
                     Act act, float* output, std::size_t out_stride,
                     ConvScratch& scratch, EpiMode mode) {
  OCB_CHECK_MSG(batch >= 1, "conv2d_winograd needs at least one image");
  OCB_CHECK_MSG(winograd::applicable(geom),
                "conv2d_winograd needs a 3x3 stride-1 conv");
  OCB_CHECK_MSG(
      u_panels.size() == static_cast<std::size_t>(winograd::kTileElems),
      "conv2d_winograd needs 16 transformed weight panels");
  const int out_c = static_cast<int>(u_panels.front().rows());
  const std::size_t in_c = static_cast<std::size_t>(geom.in_c);
  const std::size_t th = static_cast<std::size_t>(winograd::tiles_h(geom));
  const std::size_t tw = static_cast<std::size_t>(winograd::tiles_w(geom));
  const std::size_t rows = th * static_cast<std::size_t>(batch);
  // Blocks of global tile rows g = b·th + ty (winograd::block_count),
  // heights differing by at most one row.
  const std::size_t blocks = winograd::block_count(geom, out_c, batch);
  const std::size_t bufs = fused_panel_buffers(blocks);
  const std::size_t slot_floats =
      winograd::block_slot_floats(geom, out_c, batch);
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
    float* m = v + static_cast<std::size_t>(winograd::kTileElems) * in_c * cols;
    each_segment(g0, g1, inner_parallel,
                 [&](std::size_t b, int ty0, int ty1, std::size_t col) {
                   winograd::transform_input(input + b * in_stride, geom, v,
                                             cols, col, ty0, ty1);
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
                   winograd::transform_output(m, cols, col, geom, out_c, bias,
                                              epi_act, mode,
                                              output + b * out_stride, ty0,
                                              ty1);
                 });
  };
  ocb::detail::stripe_waves(blocks, bufs, slots, slot_floats,
                            /*parallel=*/true, run_block);
}

void dwconv2d(const float* input, const ConvGeometry& geom,
              const float* weight, const float* bias, Act act,
              float* output) {
  const int oh = geom.out_h();
  const int ow = geom.out_w();
  const std::size_t in_plane = static_cast<std::size_t>(geom.in_h) * geom.in_w;
  const std::size_t out_plane = static_cast<std::size_t>(oh) * ow;
  for (int c = 0; c < geom.in_c; ++c) {
    const float* src = input + static_cast<std::size_t>(c) * in_plane;
    const float* w = weight + static_cast<std::size_t>(c) * geom.kernel_h *
                                  geom.kernel_w;
    float* dst = output + static_cast<std::size_t>(c) * out_plane;
    const float b = bias != nullptr ? bias[c] : 0.0f;
    for (int y = 0; y < oh; ++y) {
      for (int x = 0; x < ow; ++x) {
        float acc = b;
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
        dst[static_cast<std::size_t>(y) * ow + x] = activate_scalar(act, acc);
      }
    }
  }
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

void deconv_interleave(const float* conv, int out_c, int in_h, int in_w,
                       float* output) {
  const std::size_t grid_w = static_cast<std::size_t>(in_w) + 1;
  const std::size_t grid = (static_cast<std::size_t>(in_h) + 1) * grid_w;
  const std::size_t out_w = static_cast<std::size_t>(in_w) * 2;
  for (int o = 0; o < out_c; ++o) {
    float* dst = output + static_cast<std::size_t>(o) * in_h * 2 * out_w;
    for (int py = 0; py < 2; ++py) {
      for (int px = 0; px < 2; ++px) {
        const float* src =
            conv + static_cast<std::size_t>((py * 2 + px) * out_c + o) * grid;
        for (int y = 0; y < in_h; ++y) {
          const float* s = src + static_cast<std::size_t>(y + py) * grid_w + px;
          float* d = dst + static_cast<std::size_t>(2 * y + py) * out_w + px;
          for (int x = 0; x < in_w; ++x) d[2 * x] = s[x];
        }
      }
    }
  }
}

void maxpool2d(const float* input, const ConvGeometry& geom, float* output) {
  const int oh = geom.out_h();
  const int ow = geom.out_w();
  const std::size_t in_plane = static_cast<std::size_t>(geom.in_h) * geom.in_w;
  const std::size_t out_plane = static_cast<std::size_t>(oh) * ow;
  for (int c = 0; c < geom.in_c; ++c) {
    const float* src = input + static_cast<std::size_t>(c) * in_plane;
    float* dst = output + static_cast<std::size_t>(c) * out_plane;
    for (int y = 0; y < oh; ++y) {
      for (int x = 0; x < ow; ++x) {
        float best = std::numeric_limits<float>::lowest();
        for (int ky = 0; ky < geom.kernel_h; ++ky) {
          const int sy = y * geom.stride - geom.pad + ky;
          if (sy < 0 || sy >= geom.in_h) continue;
          for (int kx = 0; kx < geom.kernel_w; ++kx) {
            const int sx = x * geom.stride - geom.pad + kx;
            if (sx < 0 || sx >= geom.in_w) continue;
            best = std::max(best,
                            src[static_cast<std::size_t>(sy) * geom.in_w + sx]);
          }
        }
        dst[static_cast<std::size_t>(y) * ow + x] = best;
      }
    }
  }
}

void upsample2x_nearest(const float* input, int c, int h, int w,
                        float* output) {
  const int oh = h * 2;
  const int ow = w * 2;
  for (int ch = 0; ch < c; ++ch) {
    const float* src = input + static_cast<std::size_t>(ch) * h * w;
    float* dst = output + static_cast<std::size_t>(ch) * oh * ow;
    for (int y = 0; y < oh; ++y) {
      const float* src_row = src + static_cast<std::size_t>(y / 2) * w;
      float* dst_row = dst + static_cast<std::size_t>(y) * ow;
      for (int x = 0; x < ow; ++x) dst_row[x] = src_row[x / 2];
    }
  }
}

void concat_channels(const std::vector<const float*>& srcs,
                     const std::vector<int>& channels, int h, int w,
                     float* output) {
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  float* dst = output;
  for (std::size_t i = 0; i < srcs.size(); ++i) {
    const std::size_t count = static_cast<std::size_t>(channels[i]) * plane;
    std::memcpy(dst, srcs[i], count * sizeof(float));
    dst += count;
  }
}

void add_elementwise(const float* a, const float* b, std::size_t n,
                     float* output) {
  for (std::size_t i = 0; i < n; ++i) output[i] = a[i] + b[i];
}

void slice_channels(const float* input, int c, int h, int w, int begin,
                    int end, float* output) {
  (void)c;
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  std::memcpy(output, input + static_cast<std::size_t>(begin) * plane,
              static_cast<std::size_t>(end - begin) * plane * sizeof(float));
}

void global_avg_pool(const float* input, int c, int h, int w, float* output) {
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  for (int ch = 0; ch < c; ++ch) {
    const float* src = input + static_cast<std::size_t>(ch) * plane;
    double acc = 0.0;
    for (std::size_t i = 0; i < plane; ++i) acc += src[i];
    output[ch] = static_cast<float>(acc / static_cast<double>(plane));
  }
}

void linear(const float* input, std::size_t in_features, int out_features,
            const float* weight, const float* bias, Act act, float* output) {
  for (int o = 0; o < out_features; ++o) {
    const float* w = weight + static_cast<std::size_t>(o) * in_features;
    float acc = bias != nullptr ? bias[o] : 0.0f;
    for (std::size_t i = 0; i < in_features; ++i) acc += w[i] * input[i];
    output[o] = activate_scalar(act, acc);
  }
}

}  // namespace ocb::nn
