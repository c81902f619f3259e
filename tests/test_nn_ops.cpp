#include "nn/ops.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/rng.hpp"
#include "nn/engine.hpp"
#include "nn/prune.hpp"
#include "tensor/sgemm_sparse.hpp"

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
  dwconv2d(input.data(), g, weight, bias, Act::kNone, output.data());
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
  maxpool2d(input.data(), g, output.data());
  EXPECT_FLOAT_EQ(output[0], 7.0f);
}

TEST(MaxPool, SamePaddingKeepsSize) {
  const ConvGeometry g{1, 4, 4, 5, 5, 1, 2};
  std::vector<float> input(16, 0.0f);
  input[5] = 3.0f;
  std::vector<float> output(16);
  maxpool2d(input.data(), g, output.data());
  // The 5×5 window centred anywhere within distance 2 of (1,1) sees 3.
  EXPECT_FLOAT_EQ(output[0], 3.0f);
  EXPECT_FLOAT_EQ(output[15], 3.0f);
}

TEST(Upsample, NearestReplicates) {
  std::vector<float> input{1, 2, 3, 4};  // 2×2
  std::vector<float> output(16);
  upsample2x_nearest(input.data(), 1, 2, 2, output.data());
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
  slice_channels(input.data(), 3, 2, 2, 1, 2, out.data());
  EXPECT_FLOAT_EQ(out[0], 4.0f);
  EXPECT_FLOAT_EQ(out[3], 7.0f);
}

TEST(GlobalAvgPool, AveragesPerChannel) {
  std::vector<float> input{1, 2, 3, 4, 10, 10, 10, 10};
  std::vector<float> out(2);
  global_avg_pool(input.data(), 2, 2, 2, out.data());
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

}  // namespace
}  // namespace ocb::nn
