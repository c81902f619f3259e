// Winograd F(2×2,3×3) vs the im2col reference path.
//
// The planner is free to swap a 3×3 stride-1 conv onto the Winograd
// kernel, so the two implementations must agree to float rounding on
// every shape the tiler can see: even and odd spatial extents (odd
// edges exercise the clipped overhanging tiles), prime channel counts
// (nothing aligns with the GEMM tile sizes), pad 0 and pad 1, every
// fused activation, and batched lowering.

#include "tensor/winograd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "core/rng.hpp"
#include "nn/ops.hpp"
#include "tensor/simd.hpp"
#include "tensor/tensor.hpp"

namespace ocb {
namespace {

struct ConvCase {
  int in_c, h, w, out_c, pad;
};

/// max |a-b| must stay within `rel` of the reference magnitude scale.
void expect_close(const Tensor& got, const Tensor& ref, float rel,
                  const char* what) {
  ASSERT_EQ(got.shape(), ref.shape()) << what;
  float scale = 1.0f;
  for (std::size_t i = 0; i < ref.numel(); ++i)
    scale = std::max(scale, std::fabs(ref[i]));
  const float tol = rel * scale;
  for (std::size_t i = 0; i < got.numel(); ++i)
    ASSERT_NEAR(got[i], ref[i], tol) << what << " i=" << i;
}

void run_case(const ConvCase& c, nn::Act act, std::uint64_t seed) {
  const ConvGeometry geom{c.in_c, c.h, c.w, 3, 3, 1, c.pad};
  ASSERT_TRUE(winograd::applicable(geom));
  ASSERT_GE(geom.out_h(), 1);
  ASSERT_GE(geom.out_w(), 1);

  Rng rng(seed);
  Tensor input({1, c.in_c, c.h, c.w});
  input.init_uniform(rng, -1.0f, 1.0f);
  Tensor weight({c.out_c, c.in_c, 3, 3});
  weight.init_uniform(rng, -0.5f, 0.5f);
  std::vector<float> bias(static_cast<std::size_t>(c.out_c));
  for (float& b : bias) b = static_cast<float>(rng.uniform(-0.3, 0.3));

  Tensor ref({1, c.out_c, geom.out_h(), geom.out_w()});
  nn::ConvScratch ref_scratch;
  nn::conv2d(input.data(), geom, c.out_c, weight.data(), bias.data(), act,
             ref.data(), ref_scratch);

  std::vector<PackedA> panels;
  winograd::pack_weights(weight.data(), c.out_c, c.in_c, panels);
  ASSERT_EQ(panels.size(), static_cast<std::size_t>(winograd::kTileElems));

  Tensor got({1, c.out_c, geom.out_h(), geom.out_w()});
  nn::ConvScratch scratch;
  nn::conv2d_winograd(input.data(), input.numel(), 1, geom, panels,
                      bias.data(), act, got.data(), got.numel(), scratch);
  expect_close(got, ref, 1e-4f, "winograd vs im2col");
}

TEST(Winograd, MatchesIm2colAcrossShapes) {
  // Even/odd H×W (odd extents clip the overhanging edge tiles), prime
  // C/K, both pads, minimum-size planes.
  const ConvCase cases[] = {
      {1, 4, 4, 1, 1},    // smallest even plane, single channels
      {1, 3, 3, 1, 1},    // 3×3 output: odd in both dims
      {3, 7, 5, 8, 1},    // odd rectangular, prime in_c
      {5, 9, 9, 7, 1},    // prime C and K, odd square
      {7, 11, 13, 3, 1},  // prime everything, rectangular
      {8, 16, 16, 8, 1},  // aligned power-of-two plane
      {13, 8, 8, 11, 1},  // prime channels on an even plane
      {3, 6, 6, 4, 0},    // pad 0: output 4×4, interior tiles only
      {4, 7, 9, 5, 0},    // pad 0 with odd output (5×7)
      {2, 4, 10, 6, 1},   // strongly rectangular
      // Wide planes engage the AVX2 8-tile block kernel (tiles_w >= 8)
      // including its padded-border, overlap-recompute tail, and
      // clipped odd-edge paths.
      {3, 17, 19, 5, 1},  // odd both dims, 10 tile columns
      {5, 20, 18, 4, 0},  // pad 0, exactly one full block per row
      {2, 32, 33, 3, 1},  // odd width on a large plane
  };
  std::uint64_t seed = 101;
  for (const ConvCase& c : cases) {
    SCOPED_TRACE(::testing::Message()
                 << "in_c=" << c.in_c << " h=" << c.h << " w=" << c.w
                 << " out_c=" << c.out_c << " pad=" << c.pad);
    run_case(c, nn::Act::kNone, seed++);
  }
}

TEST(Winograd, MatchesIm2colUnderFusedActivations) {
  const ConvCase c{5, 10, 9, 7, 1};
  std::uint64_t seed = 211;
  for (nn::Act act : {nn::Act::kRelu, nn::Act::kLeakyRelu, nn::Act::kSilu,
                      nn::Act::kSigmoid}) {
    SCOPED_TRACE(static_cast<int>(act));
    run_case(c, act, seed++);
  }
}

TEST(Winograd, DeltaFilterReproducesInput) {
  // A filter that is 1 at the centre tap and 0 elsewhere convolves (pad
  // 1, stride 1) to the identity: the Winograd round trip through all
  // three transforms must hand the input back to float rounding.
  const int ch = 3, h = 8, w = 6;
  const ConvGeometry geom{ch, h, w, 3, 3, 1, 1};
  Rng rng(7);
  Tensor input({1, ch, h, w});
  input.init_uniform(rng, -2.0f, 2.0f);

  Tensor weight({ch, ch, 3, 3}, 0.0f);
  for (int k = 0; k < ch; ++k)
    weight.data()[(static_cast<std::size_t>(k) * ch + k) * 9 + 4] = 1.0f;
  std::vector<float> bias(ch, 0.0f);

  std::vector<PackedA> panels;
  winograd::pack_weights(weight.data(), ch, ch, panels);
  Tensor got({1, ch, h, w});
  nn::ConvScratch scratch;
  nn::conv2d_winograd(input.data(), input.numel(), 1, geom, panels,
                      bias.data(), nn::Act::kNone, got.data(), got.numel(),
                      scratch);
  for (std::size_t i = 0; i < input.numel(); ++i)
    ASSERT_NEAR(got[i], input[i], 1e-5f) << "i=" << i;
}

TEST(Winograd, BatchedMatchesPerImage) {
  const int batch = 3;
  const ConvCase c{4, 9, 7, 6, 1};
  const ConvGeometry geom{c.in_c, c.h, c.w, 3, 3, 1, c.pad};
  const std::size_t in_stride =
      static_cast<std::size_t>(c.in_c) * c.h * c.w;
  const std::size_t out_stride =
      static_cast<std::size_t>(c.out_c) * geom.out_h() * geom.out_w();

  Rng rng(31);
  Tensor inputs({batch, c.in_c, c.h, c.w});
  inputs.init_uniform(rng, -1.0f, 1.0f);
  Tensor weight({c.out_c, c.in_c, 3, 3});
  weight.init_uniform(rng, -0.5f, 0.5f);
  std::vector<float> bias(static_cast<std::size_t>(c.out_c));
  for (float& b : bias) b = static_cast<float>(rng.uniform(-0.2, 0.2));

  std::vector<PackedA> panels;
  winograd::pack_weights(weight.data(), c.out_c, c.in_c, panels);

  Tensor batched({batch, c.out_c, geom.out_h(), geom.out_w()});
  nn::ConvScratch scratch;
  nn::conv2d_winograd(inputs.data(), in_stride, batch, geom, panels,
                      bias.data(), nn::Act::kSilu, batched.data(), out_stride,
                      scratch);

  for (int b = 0; b < batch; ++b) {
    Tensor single({1, c.out_c, geom.out_h(), geom.out_w()});
    nn::ConvScratch single_scratch;
    nn::conv2d_winograd(inputs.data() + static_cast<std::size_t>(b) * in_stride,
                        in_stride, 1, geom, panels, bias.data(), nn::Act::kSilu,
                        single.data(), out_stride, single_scratch);
    for (std::size_t i = 0; i < out_stride; ++i)
      ASSERT_NEAR(batched[static_cast<std::size_t>(b) * out_stride + i],
                  single[i], 1e-6f)
          << "b=" << b << " i=" << i;
  }
}

TEST(Winograd, TilingHelpers) {
  const ConvGeometry even{3, 8, 8, 3, 3, 1, 1};   // 8×8 out → 4×4 tiles
  const ConvGeometry odd{3, 7, 9, 3, 3, 1, 1};    // 7×9 out → 4×5 tiles
  EXPECT_EQ(winograd::tiles_h(even), 4);
  EXPECT_EQ(winograd::tiles_w(even), 4);
  EXPECT_EQ(winograd::tile_count(even), 16u);
  EXPECT_EQ(winograd::tiles_h(odd), 4);
  EXPECT_EQ(winograd::tiles_w(odd), 5);
  EXPECT_EQ(winograd::tile_count(odd), 20u);
  // Per wave slot, the V + M of the tallest block: 16 matrices of
  // (in_c + out_c) rows × that block's tile columns. The block count
  // depends on the pool size, so derive it the way the driver does.
  for (int batch = 1; batch <= 4; ++batch) {
    const std::size_t rows = 4u * static_cast<std::size_t>(batch);
    std::size_t most = 0;
    for (int b = 1; b <= batch; ++b) {
      const std::size_t r = 4u * static_cast<std::size_t>(b);
      const std::size_t blocks = winograd::block_count(even, 5, b);
      ASSERT_GE(blocks, 1u);
      ASSERT_LE(blocks, r);
      most = std::max(most, fused_panel_buffers(blocks) *
                                ((r + blocks - 1) / blocks));
    }
    EXPECT_EQ(winograd::scratch_floats(even, 5, batch),
              16u * (3u + 5u) * most * 4u)
        << "batch " << batch << " rows " << rows;
  }
  // Large weights (U = 16·in_c·out_c floats past the 1 MiB budget) keep
  // blocks at least kBlockMinCols wide: 136×128 channels on 8 tile
  // columns run 16-row blocks, so 32 rows split into 2.
  const ConvGeometry deep{136, 16, 16, 3, 3, 1, 1};
  EXPECT_EQ(winograd::block_count(deep, 128, 4), 2u);
  EXPECT_EQ(winograd::scratch_floats(deep, 128, 4),
            fused_panel_buffers(2) * 16u * (136u + 128u) * 16u * 8u);
  EXPECT_FALSE(winograd::applicable(ConvGeometry{3, 8, 8, 3, 3, 2, 1}));
  EXPECT_FALSE(winograd::applicable(ConvGeometry{3, 8, 8, 1, 1, 1, 0}));
}

// --- Blocked driver properties ---------------------------------------------
//
// conv2d_winograd walks the batch's tile rows image-major in blocks
// (winograd::block_count) that may end mid-image and span several
// images. Each case below runs a batch through it with a gap of canary
// floats between the output images and past the last one, and checks
// every image against the per-image im2col oracle under the requested
// activation and residual EpiMode.

struct BlockCase {
  int in_c, h, w, out_c, batch;
};

constexpr float kCanary = -12345.5f;

/// Largest number of images one block's tile rows touch.
std::size_t max_images_per_block(const ConvGeometry& geom, int out_c,
                                 int batch) {
  const std::size_t th = static_cast<std::size_t>(winograd::tiles_h(geom));
  const std::size_t rows = th * static_cast<std::size_t>(batch);
  const std::size_t blocks = winograd::block_count(geom, out_c, batch);
  std::size_t most = 0;
  for (std::size_t s = 0; s < blocks; ++s) {
    const std::size_t g0 = s * rows / blocks;
    const std::size_t g1 = (s + 1) * rows / blocks;
    most = std::max(most, (g1 - 1) / th - g0 / th + 1);
  }
  return most;
}

void run_block_case(const BlockCase& c, nn::Act act, EpiMode mode,
                    std::uint64_t seed) {
  const ConvGeometry geom{c.in_c, c.h, c.w, 3, 3, 1, 1};
  const std::size_t in_stride =
      static_cast<std::size_t>(c.in_c) * c.h * c.w;
  const std::size_t out_numel =
      static_cast<std::size_t>(c.out_c) * geom.out_h() * geom.out_w();
  const std::size_t gap = 7;  // canaries between images and past the end
  const std::size_t out_stride = out_numel + gap;

  Rng rng(seed);
  Tensor inputs({c.batch, c.in_c, c.h, c.w});
  inputs.init_uniform(rng, -1.0f, 1.0f);
  Tensor weight({c.out_c, c.in_c, 3, 3});
  weight.init_uniform(rng, -0.3f, 0.3f);
  std::vector<float> bias(static_cast<std::size_t>(c.out_c));
  for (float& b : bias) b = static_cast<float>(rng.uniform(-0.2, 0.2));
  // Residual modes combine with what the output already holds.
  std::vector<float> residual(out_numel * static_cast<std::size_t>(c.batch));
  for (float& r : residual) r = static_cast<float>(rng.uniform(-1.0, 1.0));

  std::vector<float> out(out_stride * static_cast<std::size_t>(c.batch),
                         kCanary);
  for (int b = 0; b < c.batch; ++b)
    std::copy_n(residual.data() + static_cast<std::size_t>(b) * out_numel,
                out_numel, out.data() + static_cast<std::size_t>(b) * out_stride);

  std::vector<PackedA> panels;
  winograd::pack_weights(weight.data(), c.out_c, c.in_c, panels);
  nn::ConvScratch scratch;
  nn::conv2d_winograd(inputs.data(), in_stride, c.batch, geom, panels,
                      bias.data(), act, out.data(), out_stride, scratch, mode);

  const EpiAct epi = nn::to_epilogue_act(act);
  Tensor raw({1, c.out_c, geom.out_h(), geom.out_w()});
  nn::ConvScratch ref_scratch;
  for (int b = 0; b < c.batch; ++b) {
    SCOPED_TRACE(::testing::Message() << "image " << b);
    nn::conv2d(inputs.data() + static_cast<std::size_t>(b) * in_stride, geom,
               c.out_c, weight.data(), bias.data(), nn::Act::kNone,
               raw.data(), ref_scratch);
    const float* got = out.data() + static_cast<std::size_t>(b) * out_stride;
    const float* res = residual.data() + static_cast<std::size_t>(b) * out_numel;
    for (std::size_t i = 0; i < out_numel; ++i) {
      float want = apply_epi_act(epi, raw[i]);
      if (mode == EpiMode::kAccThenAct) want = apply_epi_act(epi, res[i] + raw[i]);
      if (mode == EpiMode::kActThenAcc) want = res[i] + apply_epi_act(epi, raw[i]);
      ASSERT_NEAR(got[i], want, 1e-4f * std::max(1.0f, std::fabs(want)))
          << "i=" << i;
    }
    for (std::size_t i = out_numel; i < out_stride; ++i)
      ASSERT_EQ(got[i], kCanary) << "canary " << i - out_numel;
  }
}

// Shapes for the block properties. Tile rows per image: h/2 rounded
// up; tiles_w < 8 runs the scalar transforms, ≥ 8 the AVX2 ones.
const BlockCase kBlockCases[] = {
    {3, 13, 11, 5, 1},   // odd out_h/out_w, scalar width (6 tiles)
    {3, 13, 11, 5, 3},   // same, blocks spanning images
    {4, 9, 17, 6, 4},    // odd, 9 tile columns (AVX2 + clipped edge)
    {5, 26, 18, 7, 3},   // 13 tile rows per image: uneven block heights
    {2, 6, 6, 3, 4},     // 3 tile rows: each block spans several images
    {6, 2, 20, 4, 3},    // one tile row per image: blocks span 3 images
    {136, 16, 16, 128, 4},  // U past the budget: two floor-wide blocks
    {136, 7, 9, 128, 3},    // ... one block spanning all 3 odd images
    {136, 46, 16, 128, 1},  // ... 23 tile rows in blocks of 11 and 12
};

TEST(WinogradBlocks, MatchIm2colAcrossBatchesAndBlockSplits) {
  std::uint64_t seed = 500;
  std::size_t spans_two = 0, spans_three = 0, uneven = 0;
  for (const BlockCase& c : kBlockCases) {
    const ConvGeometry geom{c.in_c, c.h, c.w, 3, 3, 1, 1};
    const std::size_t rows =
        static_cast<std::size_t>(winograd::tiles_h(geom)) * c.batch;
    const std::size_t blocks = winograd::block_count(geom, c.out_c, c.batch);
    const std::size_t span = max_images_per_block(geom, c.out_c, c.batch);
    if (span >= 2) ++spans_two;
    if (span >= 3) ++spans_three;
    if (rows % blocks != 0) ++uneven;
    SCOPED_TRACE(::testing::Message()
                 << "in_c=" << c.in_c << " h=" << c.h << " w=" << c.w
                 << " out_c=" << c.out_c << " batch=" << c.batch
                 << " blocks=" << blocks);
    run_block_case(c, nn::Act::kSilu, EpiMode::kStore, seed++);
  }
  // The shapes must actually exercise the properties they are for
  // (whatever the pool size, which moves the small-weight splits).
  EXPECT_GE(spans_two, 2u);
  EXPECT_GE(spans_three, 1u);
  EXPECT_GE(uneven, 1u);
}

TEST(WinogradBlocks, EveryEpiModeAndActivation) {
  std::uint64_t seed = 700;
  for (const BlockCase& c : {BlockCase{3, 13, 11, 5, 3},
                             BlockCase{4, 9, 17, 6, 4}}) {
    for (EpiMode mode : {EpiMode::kStore, EpiMode::kAccThenAct,
                         EpiMode::kActThenAcc}) {
      for (nn::Act act : {nn::Act::kNone, nn::Act::kRelu,
                          nn::Act::kLeakyRelu, nn::Act::kSilu,
                          nn::Act::kSigmoid}) {
        SCOPED_TRACE(::testing::Message()
                     << "w=" << c.w << " mode=" << static_cast<int>(mode)
                     << " act=" << static_cast<int>(act));
        run_block_case(c, act, mode, seed++);
      }
    }
  }
}

TEST(WinogradBlocks, ScalarTransformsMatchTheOracleToo) {
  // Force the scalar transforms on the AVX2-width shapes as well.
  simd::set_simd_enabled(false);
  std::uint64_t seed = 900;
  for (const BlockCase& c : kBlockCases) {
    SCOPED_TRACE(::testing::Message() << "w=" << c.w << " batch=" << c.batch);
    run_block_case(c, nn::Act::kRelu, EpiMode::kActThenAcc, seed++);
  }
  simd::set_simd_enabled(true);
}

}  // namespace
}  // namespace ocb
