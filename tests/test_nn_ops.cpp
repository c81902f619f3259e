#include "nn/ops.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "core/rng.hpp"
#include "nn/engine.hpp"
#include "nn/prune.hpp"
#include "tensor/sgemm_sparse.hpp"
#include "tensor/simd.hpp"

namespace ocb::nn {
namespace {

TEST(Activation, ReluZeroesNegatives) {
  float data[4] = {-1.0f, 0.0f, 2.0f, -0.5f};
  apply_activation(Act::kRelu, data, 4);
  EXPECT_FLOAT_EQ(data[0], 0.0f);
  EXPECT_FLOAT_EQ(data[1], 0.0f);
  EXPECT_FLOAT_EQ(data[2], 2.0f);
  EXPECT_FLOAT_EQ(data[3], 0.0f);
}

TEST(Activation, SiluMatchesFormula) {
  float data[2] = {1.0f, -2.0f};
  apply_activation(Act::kSilu, data, 2);
  EXPECT_NEAR(data[0], 1.0f / (1.0f + std::exp(-1.0f)), 1e-6f);
  EXPECT_NEAR(data[1], -2.0f / (1.0f + std::exp(2.0f)), 1e-6f);
}

TEST(Activation, SigmoidRange) {
  float data[3] = {-10.0f, 0.0f, 10.0f};
  apply_activation(Act::kSigmoid, data, 3);
  EXPECT_LT(data[0], 0.01f);
  EXPECT_FLOAT_EQ(data[1], 0.5f);
  EXPECT_GT(data[2], 0.99f);
}

TEST(Activation, NoneIsIdentity) {
  float data[2] = {3.0f, -4.0f};
  apply_activation(Act::kNone, data, 2);
  EXPECT_FLOAT_EQ(data[0], 3.0f);
  EXPECT_FLOAT_EQ(data[1], -4.0f);
}

TEST(Conv2d, IdentityKernel) {
  // 1×1 conv with unit weight reproduces the input.
  const ConvGeometry g{1, 3, 3, 1, 1, 1, 0};
  std::vector<float> input{1, 2, 3, 4, 5, 6, 7, 8, 9};
  const float weight[1] = {1.0f};
  const float bias[1] = {0.0f};
  std::vector<float> output(9);
  ConvScratch scratch;
  conv2d(input.data(), g, 1, weight, bias, Act::kNone, output.data(),
         scratch);
  for (int i = 0; i < 9; ++i) EXPECT_FLOAT_EQ(output[i], input[i]);
}

TEST(Conv2d, BiasIsAdded) {
  const ConvGeometry g{1, 2, 2, 1, 1, 1, 0};
  std::vector<float> input{0, 0, 0, 0};
  const float weight[1] = {1.0f};
  const float bias[1] = {2.5f};
  std::vector<float> output(4);
  ConvScratch scratch;
  conv2d(input.data(), g, 1, weight, bias, Act::kNone, output.data(),
         scratch);
  for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(output[i], 2.5f);
}

TEST(Conv2d, BoxFilterSums) {
  // 3×3 all-ones kernel, pad 1: centre output = sum of all 9 pixels.
  const ConvGeometry g{1, 3, 3, 3, 3, 1, 1};
  std::vector<float> input(9, 1.0f);
  std::vector<float> weight(9, 1.0f);
  const float bias[1] = {0.0f};
  std::vector<float> output(9);
  ConvScratch scratch;
  conv2d(input.data(), g, 1, weight.data(), bias, Act::kNone, output.data(),
         scratch);
  EXPECT_FLOAT_EQ(output[4], 9.0f);  // centre
  EXPECT_FLOAT_EQ(output[0], 4.0f);  // corner sees 2×2
}

TEST(DwConv2d, PerChannelFilters) {
  const ConvGeometry g{2, 2, 2, 1, 1, 1, 0};
  std::vector<float> input{1, 1, 1, 1, 2, 2, 2, 2};
  const float weight[2] = {3.0f, 5.0f};  // one 1×1 filter per channel
  const float bias[2] = {0.0f, 1.0f};
  std::vector<float> output(8);
  dwconv2d(input.data(), input.size(), 1, g, weight, bias, Act::kNone,
           output.data(), output.size());
  EXPECT_FLOAT_EQ(output[0], 3.0f);
  EXPECT_FLOAT_EQ(output[4], 11.0f);
}

// --- transposed conv: the engine's lowering vs a naive gather -------------

struct DeconvShape {
  int in_c, out_c, h, w;
};

/// The 4×4 stride-2 pad-1 transposed conv by definition, gathered per
/// output pixel in fp64: out[o][oy][ox] = b[o] + Σ W[c][o][ky][kx] ·
/// in[c][y][x] over every oy = 2y − 1 + ky, ox = 2x − 1 + kx. `mag`
/// receives Σ|terms| per output, the scale a float sum's rounding
/// error is relative to.
std::vector<double> naive_deconv(const DeconvShape& d, const float* in,
                                 const float* weight, const float* bias,
                                 Act act, std::vector<double>& mag) {
  const int oh = 2 * d.h, ow = 2 * d.w;
  std::vector<double> out(static_cast<std::size_t>(d.out_c) * oh * ow);
  mag.assign(out.size(), 0.0);
  for (int o = 0; o < d.out_c; ++o) {
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        double acc = bias[o];
        double m = std::abs(acc);
        for (int c = 0; c < d.in_c; ++c) {
          for (int ky = 0; ky < 4; ++ky) {
            if ((oy + 1 - ky) % 2 != 0) continue;
            const int y = (oy + 1 - ky) / 2;
            if (y < 0 || y >= d.h) continue;
            for (int kx = 0; kx < 4; ++kx) {
              if ((ox + 1 - kx) % 2 != 0) continue;
              const int x = (ox + 1 - kx) / 2;
              if (x < 0 || x >= d.w) continue;
              const double t =
                  static_cast<double>(
                      weight[((static_cast<std::size_t>(c) * d.out_c + o) *
                                  4 + ky) * 4 + kx]) *
                  in[(static_cast<std::size_t>(c) * d.h + y) * d.w + x];
              acc += t;
              m += std::abs(t);
            }
          }
        }
        if (act == Act::kRelu) acc = std::max(acc, 0.0);
        const std::size_t idx =
            (static_cast<std::size_t>(o) * oh + oy) * ow + ox;
        out[idx] = acc;
        mag[idx] = m;
      }
    }
  }
  return out;
}

/// One plan variant of the lowered deconv: the request that produces it
/// and the algo/storage it must land on.
struct DeconvVariant {
  const char* name;
  PlanRequest request;
  ConvAlgo algo;
  WeightStorage storage;
};

std::vector<DeconvVariant> deconv_variants() {
  const simd::Level level = simd::active();
  auto base = [&] {
    PlanRequest r;
    r.planner.use_cache = false;
    r.planner.cost = KernelCostModel::defaults(level);
    return r;
  };
  std::vector<DeconvVariant> out;
  out.push_back({"dense", base(), ConvAlgo::kIm2colFused,
                 WeightStorage::kDense});
  PlanRequest r = base();
  r.precision = Precision::kFp16;
  r.planner.cost.half_compute_scale = 4.0;
  r.planner.cost.weight_gbps = 0.0;
  out.push_back({"fp16", r, ConvAlgo::kIm2colFused, WeightStorage::kHalf});
  r = base();
  r.sparsity.scheme = SparsityScheme::kNm;
  r.sparsity.min_params = 0;
  r.planner.cost.sparse_compute_scale = 4.0;
  out.push_back({"sparse", r, ConvAlgo::kIm2colFused,
                 WeightStorage::kSparse});
  return out;
}

/// The weights the variant's kernels effectively multiply by: fp16
/// storage rounds every weight to half, sparse storage drops the
/// entries the magnitude mask prunes from the lowered phase matrix
/// (row p·out_c + o, column (c, ty, tx) holds W[c][o][3−py−2ty][3−px−2tx]).
/// Feeding these to the engine makes its compressed packing exact, so
/// the oracle can hold every variant to the fp32 tolerance.
std::vector<float> effective_weights(const DeconvShape& d,
                                     std::vector<float> w,
                                     const PlanRequest& request) {
  if (request.precision == Precision::kFp16) {
    for (float& v : w)
      v = half_bits_to_float(float_to_half_bits(v, request.half_format),
                             request.half_format);
  }
  if (request.sparsity.enabled()) {
    const std::size_t rows = 4 * static_cast<std::size_t>(d.out_c);
    const std::size_t k = 4 * static_cast<std::size_t>(d.in_c);
    std::vector<float> phase(rows * k);
    deconv_phase_weights(w.data(), d.in_c, d.out_c, phase.data());
    const std::vector<std::uint8_t> mask =
        magnitude_mask(phase.data(), rows, k, request.sparsity);
    for (int py = 0; py < 2; ++py)
      for (int px = 0; px < 2; ++px)
        for (int o = 0; o < d.out_c; ++o)
          for (int c = 0; c < d.in_c; ++c)
            for (int ty = 0; ty < 2; ++ty)
              for (int tx = 0; tx < 2; ++tx) {
                const std::size_t row =
                    static_cast<std::size_t>((py * 2 + px) * d.out_c + o);
                const std::size_t col =
                    static_cast<std::size_t>(c * 4 + ty * 2 + tx);
                if (mask[row * k + col] != 0) continue;
                w[((static_cast<std::size_t>(c) * d.out_c + o) * 4 +
                   (3 - py - 2 * ty)) * 4 + (3 - px - 2 * tx)] = 0.0f;
              }
  }
  return w;
}

/// in → deconv, plus an upsampled sibling concatenated after it, so the
/// concat placement has the deconv write straight into a placed view of
/// the concat buffer (a per-image stride that is not its own size).
Graph deconv_graph(const DeconvShape& d, Act act, int* deconv) {
  Graph g;
  const int in = g.input(d.in_c, d.h, d.w);
  *deconv = g.deconv(in, d.out_c, act, "up");
  const int up = g.upsample2x(in);
  g.mark_output(g.concat({*deconv, up}));
  return g;
}

void expect_matches_oracle(const DeconvShape& d, const std::vector<float>& in,
                           const std::vector<float>& w, const Tensor& bias,
                           Act act, const Tensor& got) {
  std::vector<double> mag;
  const std::vector<double> want =
      naive_deconv(d, in.data(), w.data(), bias.data(), act, mag);
  // The concat output's leading out_c channels are the deconv.
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_LE(std::abs(static_cast<double>(got.data()[i]) - want[i]),
              1e-5 * std::max(1.0, mag[i]))
        << "output " << i;
  }
}

TEST(Deconv, LoweredPlansMatchNaiveTransposedConv) {
  const DeconvShape shapes[] = {{5, 7, 1, 1}, {3, 4, 2, 2}, {13, 11, 7, 7},
                                {7, 5, 5, 9}};
  constexpr int kBatch = 3;
  for (const DeconvShape& d : shapes) {
    for (const DeconvVariant& v : deconv_variants()) {
      for (const Act act : {Act::kNone, Act::kRelu}) {
        SCOPED_TRACE(::testing::Message()
                     << d.in_c << "x" << d.h << "x" << d.w << " -> "
                     << d.out_c << " " << v.name
                     << " act=" << static_cast<int>(act));
        int node = -1;
        const Graph g = deconv_graph(d, act, &node);
        Engine engine(g, 5);
        Rng rng(static_cast<std::uint64_t>(d.in_c * 100 + d.h));
        std::vector<float> w(engine.weight(node).numel());
        for (float& x : w) x = static_cast<float>(rng.uniform(-0.5, 0.5));
        w = effective_weights(d, std::move(w), v.request);
        std::copy(w.begin(), w.end(), engine.weight(node).data());
        Tensor& bias = engine.bias(node);
        for (std::size_t i = 0; i < bias.numel(); ++i)
          bias.data()[i] = static_cast<float>(rng.uniform(-0.5, 0.5));

        PlanRequest request = v.request;
        request.max_batch = kBatch;
        const ConvPlan& plan =
            engine.prepare(request).nodes[static_cast<std::size_t>(node)];
        ASSERT_EQ(plan.algo, v.algo);
        ASSERT_EQ(plan.storage, v.storage);

        std::vector<Tensor> frames;
        std::vector<std::vector<float>> raw;
        for (int b = 0; b < kBatch; ++b) {
          Tensor x({1, d.in_c, d.h, d.w});
          x.init_uniform(rng, -1.0f, 1.0f);
          raw.emplace_back(x.data(), x.data() + x.numel());
          frames.push_back(std::move(x));
        }
        expect_matches_oracle(d, raw[0], w, bias, act,
                              engine.run(frames[0]).front());
        const auto outs = engine.run_batch(frames);
        for (int b = 0; b < kBatch; ++b)
          expect_matches_oracle(d, raw[static_cast<std::size_t>(b)], w, bias,
                                act, outs[static_cast<std::size_t>(b)].front());
      }
    }
  }
}

TEST(MaxPool, PicksMaximum) {
  const ConvGeometry g{1, 2, 2, 2, 2, 2, 0};
  std::vector<float> input{1, 7, 3, 5};
  std::vector<float> output(1);
  maxpool2d(input.data(), input.size(), 1, g, output.data(), output.size());
  EXPECT_FLOAT_EQ(output[0], 7.0f);
}

TEST(MaxPool, SamePaddingKeepsSize) {
  const ConvGeometry g{1, 4, 4, 5, 5, 1, 2};
  std::vector<float> input(16, 0.0f);
  input[5] = 3.0f;
  std::vector<float> output(16);
  maxpool2d(input.data(), input.size(), 1, g, output.data(), output.size());
  // The 5×5 window centred anywhere within distance 2 of (1,1) sees 3.
  EXPECT_FLOAT_EQ(output[0], 3.0f);
  EXPECT_FLOAT_EQ(output[15], 3.0f);
}

TEST(Upsample, NearestReplicates) {
  std::vector<float> input{1, 2, 3, 4};  // 2×2
  std::vector<float> output(16);
  upsample2x_nearest(input.data(), input.size(), 1, 1, 2, 2, output.data(),
                     output.size());
  EXPECT_FLOAT_EQ(output[0], 1.0f);
  EXPECT_FLOAT_EQ(output[1], 1.0f);
  EXPECT_FLOAT_EQ(output[2], 2.0f);
  EXPECT_FLOAT_EQ(output[4], 1.0f);
  EXPECT_FLOAT_EQ(output[15], 4.0f);
}

TEST(Concat, OrdersChannelsBySource) {
  std::vector<float> a(4, 1.0f);  // 1 channel 2×2
  std::vector<float> b(8, 2.0f);  // 2 channels 2×2
  std::vector<float> out(12);
  concat_channels({a.data(), b.data()}, {1, 2}, 2, 2, out.data());
  EXPECT_FLOAT_EQ(out[0], 1.0f);
  EXPECT_FLOAT_EQ(out[4], 2.0f);
  EXPECT_FLOAT_EQ(out[11], 2.0f);
}

TEST(AddElementwise, Adds) {
  std::vector<float> a{1, 2}, b{3, 4}, out(2);
  add_elementwise(a.data(), b.data(), 2, out.data());
  EXPECT_FLOAT_EQ(out[0], 4.0f);
  EXPECT_FLOAT_EQ(out[1], 6.0f);
}

TEST(SliceChannels, ExtractsMiddle) {
  std::vector<float> input(12);  // 3 channels 2×2
  for (std::size_t i = 0; i < 12; ++i) input[i] = static_cast<float>(i);
  std::vector<float> out(4);
  slice_channels(input.data(), input.size(), 1, 2, 2, 1, 2, out.data(),
                 out.size());
  EXPECT_FLOAT_EQ(out[0], 4.0f);
  EXPECT_FLOAT_EQ(out[3], 7.0f);
}

TEST(GlobalAvgPool, AveragesPerChannel) {
  std::vector<float> input{1, 2, 3, 4, 10, 10, 10, 10};
  std::vector<float> out(2);
  global_avg_pool(input.data(), input.size(), 1, 2, 2, 2, out.data(),
                  out.size());
  EXPECT_FLOAT_EQ(out[0], 2.5f);
  EXPECT_FLOAT_EQ(out[1], 10.0f);
}

TEST(Linear, MatVecPlusBias) {
  std::vector<float> input{1, 2};
  std::vector<float> weight{1, 1, 2, -1};  // 2×2
  std::vector<float> bias{0.5f, -0.5f};
  std::vector<float> out(2);
  linear(input.data(), 2, 2, weight.data(), bias.data(), Act::kNone,
         out.data());
  EXPECT_FLOAT_EQ(out[0], 3.5f);
  EXPECT_FLOAT_EQ(out[1], -0.5f);
}

TEST(Conv2d, StridedAgainstManualComputation) {
  // 2×2 kernel, stride 2 over 4×4 input, single channel.
  const ConvGeometry g{1, 4, 4, 2, 2, 2, 0};
  std::vector<float> input(16);
  for (std::size_t i = 0; i < 16; ++i) input[i] = static_cast<float>(i);
  const std::vector<float> weight{1, 0, 0, 1};  // trace of each window
  const float bias[1] = {0.0f};
  std::vector<float> output(4);
  ConvScratch scratch;
  conv2d(input.data(), g, 1, weight.data(), bias, Act::kNone, output.data(),
         scratch);
  EXPECT_FLOAT_EQ(output[0], 0.0f + 5.0f);
  EXPECT_FLOAT_EQ(output[1], 2.0f + 7.0f);
  EXPECT_FLOAT_EQ(output[2], 8.0f + 13.0f);
  EXPECT_FLOAT_EQ(output[3], 10.0f + 15.0f);
}


// --- pooled non-GEMM ops against their single-thread scalar loops ----------
//
// Each oracle below is the op's scalar loop as it stood before the ops
// were split over the pool and given AVX2 rows, one image per call.
// Every op but the activations is exact, so the rewritten op must match
// bit for bit: on both SIMD paths, at widths below and off 8, at h = 1,
// across images `kPad` floats apart (the gaps must stay untouched), and
// with -inf and near-lowest() inputs.

constexpr std::size_t kPad = 5;
constexpr float kSentinel = 12345.0f;

void oracle_maxpool(const float* input, const ConvGeometry& geom,
                    float* output) {
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

void oracle_upsample(const float* input, int c, int h, int w, float* output) {
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

void oracle_deconv_interleave(const float* conv, int out_c, int in_h,
                              int in_w, float* output) {
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
          const float* sp =
              src + static_cast<std::size_t>(y + py) * grid_w + px;
          float* d = dst + static_cast<std::size_t>(2 * y + py) * out_w + px;
          for (int x = 0; x < in_w; ++x) d[2 * x] = sp[x];
        }
      }
    }
  }
}

float oracle_act(Act act, float v) {
  switch (act) {
    case Act::kNone: return v;
    case Act::kRelu: return v < 0.0f ? 0.0f : v;
    case Act::kLeakyRelu: return v < 0.0f ? kLeakySlope * v : v;
    case Act::kSilu: return v / (1.0f + std::exp(-v));
    case Act::kSigmoid: return 1.0f / (1.0f + std::exp(-v));
  }
  return v;
}

void oracle_dwconv(const float* input, const ConvGeometry& geom,
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
        dst[static_cast<std::size_t>(y) * ow + x] = oracle_act(act, acc);
      }
    }
  }
}

/// `batch` images of `chw` random floats, kPad floats apart; the gaps
/// hold kSentinel. With `hostile`, a few values are -inf or near
/// lowest(), and image 0's channel 0 is all -inf.
std::vector<float> random_images(int batch, std::size_t chw,
                                 std::size_t plane, Rng& rng,
                                 bool hostile = false) {
  std::vector<float> v(static_cast<std::size_t>(batch) * (chw + kPad),
                       kSentinel);
  const float lowest = std::numeric_limits<float>::lowest();
  for (int b = 0; b < batch; ++b) {
    float* img = v.data() + static_cast<std::size_t>(b) * (chw + kPad);
    for (std::size_t i = 0; i < chw; ++i) {
      img[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
      const double r = rng.uniform();
      if (hostile && r < 0.05) img[i] = -std::numeric_limits<float>::infinity();
      if (hostile && r > 0.95) img[i] = lowest * 0.999f;
    }
    if (hostile && b == 0)
      std::fill_n(img, plane, -std::numeric_limits<float>::infinity());
  }
  return v;
}

/// Bitwise equality, gaps included.
void expect_bits_eq(const std::vector<float>& got,
                    const std::vector<float>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    std::uint32_t a = 0, b = 0;
    std::memcpy(&a, &got[i], sizeof(a));
    std::memcpy(&b, &want[i], sizeof(b));
    ASSERT_EQ(a, b) << "float " << i << ": got " << got[i] << ", want "
                    << want[i];
  }
}

/// Runs `body` on the AVX2 path (where the host has it) and the scalar.
template <typename Body>
void on_both_paths(Body&& body) {
  for (const bool simd_on : {true, false}) {
    SCOPED_TRACE(simd_on ? "simd" : "scalar");
    simd::set_simd_enabled(simd_on);
    body();
  }
  simd::set_simd_enabled(true);
}

struct PoolCase {
  int k, s, p;
};

struct MapShape {
  int c, h, w;
};

// Widths under 8, off 8 and past one maxpool row pass (2048 floats),
// h = 1, and maps big enough to split over the pool.
constexpr MapShape kMapShapes[] = {{3, 1, 1},  {2, 1, 7},   {3, 5, 3},
                                   {2, 9, 13}, {4, 6, 16},  {3, 7, 17},
                                   {2, 3, 2100}, {24, 40, 72}};

TEST(MaxPool, PooledMatchesScalarLoopBitExact) {
  const PoolCase cases[] = {{3, 2, 1}, {5, 1, 2}, {2, 2, 0}};
  for (const PoolCase& pc : cases) {
    for (const MapShape& m : kMapShapes) {
      const ConvGeometry g{m.c, m.h, m.w, pc.k, pc.k, pc.s, pc.p};
      if (g.out_h() < 1 || g.out_w() < 1) continue;
      for (const int batch : {1, 3}) {
        SCOPED_TRACE(::testing::Message()
                     << "k" << pc.k << " s" << pc.s << " p" << pc.p << " "
                     << m.c << "x" << m.h << "x" << m.w << " b" << batch);
        Rng rng(static_cast<std::uint64_t>(m.w * 31 + pc.k));
        const std::size_t in_chw = static_cast<std::size_t>(m.c) * m.h * m.w;
        const std::size_t out_chw =
            static_cast<std::size_t>(m.c) * g.out_h() * g.out_w();
        const auto in = random_images(
            batch, in_chw, static_cast<std::size_t>(m.h) * m.w, rng, true);
        std::vector<float> want(static_cast<std::size_t>(batch) *
                                    (out_chw + kPad),
                                kSentinel);
        for (int b = 0; b < batch; ++b)
          oracle_maxpool(in.data() + b * (in_chw + kPad), g,
                         want.data() + b * (out_chw + kPad));
        on_both_paths([&] {
          std::vector<float> got(want.size(), kSentinel);
          maxpool2d(in.data(), in_chw + kPad, batch, g, got.data(),
                    out_chw + kPad);
          expect_bits_eq(got, want);
        });
      }
    }
  }
}

TEST(Upsample, PooledMatchesScalarLoopBitExact) {
  for (const MapShape& m : kMapShapes) {
    for (const int batch : {1, 3}) {
      SCOPED_TRACE(::testing::Message()
                   << m.c << "x" << m.h << "x" << m.w << " b" << batch);
      Rng rng(static_cast<std::uint64_t>(m.w));
      const std::size_t in_chw = static_cast<std::size_t>(m.c) * m.h * m.w;
      const std::size_t out_chw = in_chw * 4;
      const auto in = random_images(batch, in_chw, 1, rng, true);
      std::vector<float> want(batch * (out_chw + kPad), kSentinel);
      for (int b = 0; b < batch; ++b)
        oracle_upsample(in.data() + b * (in_chw + kPad), m.c, m.h, m.w,
                        want.data() + b * (out_chw + kPad));
      on_both_paths([&] {
        std::vector<float> got(want.size(), kSentinel);
        upsample2x_nearest(in.data(), in_chw + kPad, batch, m.c, m.h, m.w,
                           got.data(), out_chw + kPad);
        expect_bits_eq(got, want);
      });
    }
  }
}

TEST(Deconv, PooledInterleaveMatchesScalarLoopBitExact) {
  for (const MapShape& m : kMapShapes) {
    for (const int batch : {1, 3}) {
      SCOPED_TRACE(::testing::Message()
                   << m.c << "x" << m.h << "x" << m.w << " b" << batch);
      Rng rng(static_cast<std::uint64_t>(m.h * 7 + m.w));
      const std::size_t conv_chw =
          static_cast<std::size_t>(4 * m.c) * (m.h + 1) * (m.w + 1);
      const std::size_t out_chw = static_cast<std::size_t>(m.c) * m.h * m.w * 4;
      const auto conv = random_images(batch, conv_chw, 1, rng);
      std::vector<float> want(batch * (out_chw + kPad), kSentinel);
      for (int b = 0; b < batch; ++b)
        oracle_deconv_interleave(conv.data() + b * (conv_chw + kPad), m.c,
                                 m.h, m.w, want.data() + b * (out_chw + kPad));
      on_both_paths([&] {
        std::vector<float> got(want.size(), kSentinel);
        deconv_interleave(conv.data(), conv_chw + kPad, batch, m.c, m.h, m.w,
                          got.data(), out_chw + kPad);
        expect_bits_eq(got, want);
      });
    }
  }
}

TEST(DwConv2d, PooledMatchesScalarLoop) {
  const PoolCase cases[] = {{3, 1, 1}, {3, 2, 1}, {5, 1, 2}};
  for (const PoolCase& pc : cases) {
    for (const MapShape& m : kMapShapes) {
      if (m.w > 1000) continue;  // the row-pass split is maxpool's alone
      const ConvGeometry g{m.c, m.h, m.w, pc.k, pc.k, pc.s, pc.p};
      for (const Act act : {Act::kNone, Act::kRelu, Act::kLeakyRelu,
                            Act::kSilu, Act::kSigmoid}) {
        for (const int batch : {1, 3}) {
          SCOPED_TRACE(::testing::Message()
                       << "k" << pc.k << " s" << pc.s << " " << m.c << "x"
                       << m.h << "x" << m.w << " b" << batch
                       << " act=" << static_cast<int>(act));
          Rng rng(static_cast<std::uint64_t>(m.c * 13 + m.w));
          const std::size_t in_chw = static_cast<std::size_t>(m.c) * m.h * m.w;
          const std::size_t out_chw =
              static_cast<std::size_t>(m.c) * g.out_h() * g.out_w();
          const auto in = random_images(batch, in_chw, 1, rng);
          std::vector<float> w(static_cast<std::size_t>(m.c) * pc.k * pc.k);
          std::vector<float> bias(static_cast<std::size_t>(m.c));
          for (float& x : w) x = static_cast<float>(rng.uniform(-0.5, 0.5));
          for (float& x : bias) x = static_cast<float>(rng.uniform(-0.5, 0.5));
          std::vector<float> want(batch * (out_chw + kPad), kSentinel);
          for (int b = 0; b < batch; ++b)
            oracle_dwconv(in.data() + b * (in_chw + kPad), g, w.data(),
                          bias.data(), act, want.data() + b * (out_chw + kPad));
          on_both_paths([&] {
            std::vector<float> got(want.size(), kSentinel);
            dwconv2d(in.data(), in_chw + kPad, batch, g, w.data(),
                     bias.data(), act, got.data(), out_chw + kPad);
            if (act == Act::kSilu || act == Act::kSigmoid) {
              // fast_exp vs std::exp: ≈2 ULP (tensor/gemm.hpp).
              for (std::size_t i = 0; i < got.size(); ++i)
                ASSERT_NEAR(got[i], want[i], 1e-6f * (1.0f + std::abs(want[i])))
                    << "float " << i;
            } else {
              expect_bits_eq(got, want);
            }
          });
        }
      }
    }
  }
}

TEST(Activation, PooledBranchFreeMatchesScalarLoop) {
  // Sizes under one vector, off 8, and over the pool's work floor.
  for (const std::size_t n : {std::size_t{5}, std::size_t{67},
                              std::size_t{200003}}) {
    for (const Act act : {Act::kRelu, Act::kLeakyRelu, Act::kSilu,
                          Act::kSigmoid}) {
      SCOPED_TRACE(::testing::Message()
                   << "n=" << n << " act=" << static_cast<int>(act));
      Rng rng(n);
      std::vector<float> in(n);
      for (float& x : in) x = static_cast<float>(rng.uniform(-20.0, 20.0));
      std::vector<float> want(n);
      for (std::size_t i = 0; i < n; ++i) want[i] = oracle_act(act, in[i]);
      on_both_paths([&] {
        std::vector<float> got = in;
        apply_activation(act, got.data(), n);
        if (act == Act::kRelu || act == Act::kLeakyRelu) {
          expect_bits_eq(got, want);
        } else {
          for (std::size_t i = 0; i < n; ++i)
            ASSERT_NEAR(got[i], want[i], 1e-6f * (1.0f + std::abs(want[i])))
                << "float " << i;
        }
      });
    }
  }
}

TEST(AddElementwise, PooledMatchesScalarLoopBitExact) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{13},
                              std::size_t{300001}}) {
    Rng rng(n + 1);
    std::vector<float> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
      b[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    for (const Act act : {Act::kNone, Act::kRelu}) {
      std::vector<float> want(n);
      for (std::size_t i = 0; i < n; ++i)
        want[i] = oracle_act(act, a[i] + b[i]);
      on_both_paths([&] {
        std::vector<float> got(n);
        add_elementwise(a.data(), b.data(), n, got.data(), act);
        expect_bits_eq(got, want);
      });
    }
  }
}

TEST(Copies, PooledCopiesMatchScalarLoops) {
  // copy_images (the engine's input, concat and residual copies), the
  // channel slice and the global average pool, over strided batches.
  for (const MapShape& m : kMapShapes) {
    for (const int batch : {1, 3}) {
      SCOPED_TRACE(::testing::Message()
                   << m.c << "x" << m.h << "x" << m.w << " b" << batch);
      Rng rng(static_cast<std::uint64_t>(m.c + m.w));
      const std::size_t plane = static_cast<std::size_t>(m.h) * m.w;
      const std::size_t chw = static_cast<std::size_t>(m.c) * plane;
      const auto in = random_images(batch, chw, 1, rng);
      const int c0 = m.c / 3, c1 = std::max(c0 + 1, m.c - 1);
      const std::size_t slice = static_cast<std::size_t>(c1 - c0) * plane;

      std::vector<float> want_copy(batch * (chw + kPad), kSentinel);
      std::vector<float> want_slice(batch * (slice + kPad), kSentinel);
      std::vector<float> want_gap(batch * (m.c + kPad), kSentinel);
      for (int b = 0; b < batch; ++b) {
        const float* img = in.data() + b * (chw + kPad);
        std::copy_n(img, chw, want_copy.data() + b * (chw + kPad));
        std::copy_n(img + c0 * plane, slice,
                    want_slice.data() + b * (slice + kPad));
        for (int ch = 0; ch < m.c; ++ch) {
          double acc = 0.0;
          for (std::size_t i = 0; i < plane; ++i) acc += img[ch * plane + i];
          want_gap[b * (m.c + kPad) + ch] =
              static_cast<float>(acc / static_cast<double>(plane));
        }
      }
      std::vector<float> got_copy(want_copy.size(), kSentinel);
      copy_images(in.data(), chw + kPad, batch, chw, got_copy.data(),
                  chw + kPad);
      expect_bits_eq(got_copy, want_copy);
      std::vector<float> got_slice(want_slice.size(), kSentinel);
      slice_channels(in.data(), chw + kPad, batch, m.h, m.w, c0, c1,
                     got_slice.data(), slice + kPad);
      expect_bits_eq(got_slice, want_slice);
      std::vector<float> got_gap(want_gap.size(), kSentinel);
      global_avg_pool(in.data(), chw + kPad, batch, m.c, m.h, m.w,
                      got_gap.data(), m.c + kPad);
      expect_bits_eq(got_gap, want_gap);
    }
  }
}

}  // namespace
}  // namespace ocb::nn
