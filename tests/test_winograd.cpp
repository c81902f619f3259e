// Winograd F(2×2,3×3) and F(4×4,3×3) vs the im2col reference path.
//
// The planner is free to swap a 3×3 stride-1 conv onto the Winograd
// kernel with either output tile, so both tiles must agree with the
// im2col conv to float rounding on every shape the tiler can see:
// out_h/out_w of every residue mod 2 and mod 4 (the edge tiles hang
// over and are clipped), prime channel counts (nothing aligns with
// the GEMM tile sizes), pad 0 and pad 1, every fused activation, and
// batched lowering. The AVX2 transforms must match the scalar ones bit
// for bit.

#include "tensor/winograd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "nn/ops.hpp"
#include "parallel/thread_pool.hpp"
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

void run_case(const ConvCase& c, nn::Act act, int tile, std::uint64_t seed) {
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
  winograd::pack_weights(weight.data(), c.out_c, c.in_c, tile, panels);
  ASSERT_EQ(panels.size(),
            static_cast<std::size_t>(winograd::tile_elems(tile)));

  Tensor got({1, c.out_c, geom.out_h(), geom.out_w()});
  nn::ConvScratch scratch;
  nn::conv2d_winograd(input.data(), input.numel(), 1, geom, tile, panels,
                      bias.data(), act, got.data(), got.numel(), scratch);
  expect_close(got, ref, 1e-4f, "winograd vs im2col");
}

TEST(Winograd, TileConstants) {
  EXPECT_TRUE(winograd::tile_legal(2));
  EXPECT_TRUE(winograd::tile_legal(4));
  EXPECT_FALSE(winograd::tile_legal(0));
  EXPECT_FALSE(winograd::tile_legal(3));
  EXPECT_EQ(winograd::tile_elems(2), 16);
  EXPECT_EQ(winograd::tile_elems(4), 36);
}

TEST(Winograd, MatchesIm2colAcrossShapes) {
  // Output extents cover every residue mod 4 in both dims (so both
  // tiles clip their overhanging edge tiles every way), prime C/K, both
  // pads, minimum-size planes.
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
      {3, 6, 2, 4, 1},    // output 6×2: out_h mod 4 = 2, one column tile
      // Wide planes engage the AVX2 8-tile block kernel (tiles_w >= 8)
      // including its padded-border, overlap-recompute tail, and
      // clipped edge paths: 2×2 tiles from out_w 15, 4×4 from 29 (32
      // for the unclipped output blocks).
      {3, 17, 19, 5, 1},  // odd both dims, 10 2×2-tile columns
      {5, 20, 18, 4, 0},  // pad 0, exactly one full 2×2 block per row
      {2, 32, 33, 3, 1},  // out 32×33: mod 4 = 0, 1
      {3, 13, 34, 5, 1},  // out 13×34: mod 4 = 1, 2; 9 4×4-tile columns
      {2, 10, 63, 3, 1},  // out 10×63: mod 4 = 2, 3
      {4, 9, 45, 4, 0},   // pad 0, out 7×43: mod 4 = 3, 3
      {3, 8, 40, 5, 1},   // out 8×40: one full 4×4 block + 2 tiles
      {5, 5, 30, 4, 1},   // out_w 30: 8 4×4-tile columns, 7 unclipped
  };
  for (const int tile : winograd::kTiles) {
    std::uint64_t seed = 101;
    for (const ConvCase& c : cases) {
      SCOPED_TRACE(::testing::Message()
                   << "tile=" << tile << " in_c=" << c.in_c << " h=" << c.h
                   << " w=" << c.w << " out_c=" << c.out_c
                   << " pad=" << c.pad);
      run_case(c, nn::Act::kNone, tile, seed++);
    }
  }
}

TEST(Winograd, MatchesIm2colUnderFusedActivations) {
  for (const int tile : winograd::kTiles) {
    std::uint64_t seed = 211;
    for (const ConvCase& c : {ConvCase{5, 10, 9, 7, 1},
                              ConvCase{4, 11, 37, 6, 1}}) {
      for (nn::Act act : {nn::Act::kRelu, nn::Act::kLeakyRelu,
                          nn::Act::kSilu, nn::Act::kSigmoid}) {
        SCOPED_TRACE(::testing::Message() << "tile=" << tile << " w=" << c.w
                                          << " act=" << static_cast<int>(act));
        run_case(c, act, tile, seed++);
      }
    }
  }
}

TEST(Winograd, DeltaFilterReproducesInput) {
  // A filter that is 1 at the centre tap and 0 elsewhere convolves (pad
  // 1, stride 1) to the identity: the Winograd round trip through all
  // three transforms must hand the input back to float rounding, for
  // the 4×4 and the 6×6 input tile, on rows under and over 8 tiles.
  for (const int tile : winograd::kTiles) {
    for (const auto [h, w] : {std::pair{8, 6}, std::pair{9, 37}}) {
      SCOPED_TRACE(::testing::Message()
                   << "tile=" << tile << " h=" << h << " w=" << w);
      const int ch = 3;
      const ConvGeometry geom{ch, h, w, 3, 3, 1, 1};
      Rng rng(7);
      Tensor input({1, ch, h, w});
      input.init_uniform(rng, -2.0f, 2.0f);

      Tensor weight({ch, ch, 3, 3}, 0.0f);
      for (int k = 0; k < ch; ++k)
        weight.data()[(static_cast<std::size_t>(k) * ch + k) * 9 + 4] = 1.0f;
      std::vector<float> bias(ch, 0.0f);

      std::vector<PackedA> panels;
      winograd::pack_weights(weight.data(), ch, ch, tile, panels);
      Tensor got({1, ch, h, w});
      nn::ConvScratch scratch;
      nn::conv2d_winograd(input.data(), input.numel(), 1, geom, tile, panels,
                          bias.data(), nn::Act::kNone, got.data(),
                          got.numel(), scratch);
      for (std::size_t i = 0; i < input.numel(); ++i)
        ASSERT_NEAR(got[i], input[i], 1e-5f) << "i=" << i;
    }
  }
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

  for (const int tile : winograd::kTiles) {
    SCOPED_TRACE(::testing::Message() << "tile=" << tile);
    std::vector<PackedA> panels;
    winograd::pack_weights(weight.data(), c.out_c, c.in_c, tile, panels);

    Tensor batched({batch, c.out_c, geom.out_h(), geom.out_w()});
    nn::ConvScratch scratch;
    nn::conv2d_winograd(inputs.data(), in_stride, batch, geom, tile, panels,
                        bias.data(), nn::Act::kSilu, batched.data(),
                        out_stride, scratch);

    for (int b = 0; b < batch; ++b) {
      Tensor single({1, c.out_c, geom.out_h(), geom.out_w()});
      nn::ConvScratch single_scratch;
      nn::conv2d_winograd(
          inputs.data() + static_cast<std::size_t>(b) * in_stride, in_stride,
          1, geom, tile, panels, bias.data(), nn::Act::kSilu, single.data(),
          out_stride, single_scratch);
      for (std::size_t i = 0; i < out_stride; ++i)
        ASSERT_NEAR(batched[static_cast<std::size_t>(b) * out_stride + i],
                    single[i], 1e-6f)
            << "b=" << b << " i=" << i;
    }
  }
}

/// Scratch floats derived the way the driver sizes its slots: per
/// batch b, the wave's buffers × the tallest block's V + M.
std::size_t expected_scratch(const ConvGeometry& geom, int out_c, int batch,
                             int tile) {
  const std::size_t th = static_cast<std::size_t>(winograd::tiles_h(geom, tile));
  const std::size_t tw = static_cast<std::size_t>(winograd::tiles_w(geom, tile));
  const std::size_t col = static_cast<std::size_t>(winograd::tile_elems(tile)) *
                          static_cast<std::size_t>(geom.in_c + out_c);
  std::size_t most = 0;
  for (int b = 1; b <= batch; ++b) {
    const std::size_t r = th * static_cast<std::size_t>(b);
    const std::size_t blocks = winograd::block_count(geom, out_c, b, tile);
    EXPECT_GE(blocks, 1u);
    EXPECT_LE(blocks, r);
    most = std::max(most, fused_panel_buffers(blocks) * col *
                              ((r + blocks - 1) / blocks) * tw);
  }
  return most;
}

TEST(Winograd, TilingHelpers) {
  const ConvGeometry even{3, 8, 8, 3, 3, 1, 1};   // 8×8 out
  const ConvGeometry odd{3, 7, 9, 3, 3, 1, 1};    // 7×9 out
  EXPECT_EQ(winograd::tiles_h(even, 2), 4);
  EXPECT_EQ(winograd::tiles_w(even, 2), 4);
  EXPECT_EQ(winograd::tile_count(even, 2), 16u);
  EXPECT_EQ(winograd::tiles_h(odd, 2), 4);
  EXPECT_EQ(winograd::tiles_w(odd, 2), 5);
  EXPECT_EQ(winograd::tile_count(odd, 2), 20u);
  EXPECT_EQ(winograd::tiles_h(even, 4), 2);
  EXPECT_EQ(winograd::tiles_w(even, 4), 2);
  EXPECT_EQ(winograd::tile_count(even, 4), 4u);
  EXPECT_EQ(winograd::tiles_h(odd, 4), 2);
  EXPECT_EQ(winograd::tiles_w(odd, 4), 3);
  EXPECT_EQ(winograd::tile_count(odd, 4), 6u);
  // Per wave slot, the V + M of the tallest block: α² matrices of
  // (in_c + out_c) rows × that block's tile columns. The block count
  // depends on the pool size, so derive it the way the driver does.
  for (const int tile : winograd::kTiles) {
    for (int batch = 1; batch <= 4; ++batch) {
      EXPECT_EQ(winograd::scratch_floats(even, 5, batch, tile),
                expected_scratch(even, 5, batch, tile))
          << "tile " << tile << " batch " << batch;
    }
  }
  // Large weights (U = α²·in_c·out_c floats past kUCachedBytes) keep
  // blocks at least kBlockMinElems / α² columns wide: 272×256 channels
  // on 8 2×2-tile columns run 16-row blocks (128 columns), on 4 4×4-tile
  // columns 14-row blocks (56 columns) — so 4 images split into 2 either
  // way, and the floor block holds the same V + M for both tiles.
  const ConvGeometry deep{272, 16, 16, 3, 3, 1, 1};
  EXPECT_EQ(winograd::block_count(deep, 256, 4, 2), 2u);
  EXPECT_EQ(winograd::block_count(deep, 256, 4, 4), 2u);
  EXPECT_EQ(winograd::scratch_floats(deep, 256, 4, 2),
            fused_panel_buffers(2) * 16u * (272u + 256u) * 16u * 8u);
  EXPECT_EQ(winograd::scratch_floats(deep, 256, 4, 4),
            expected_scratch(deep, 256, 4, 4));
  // A cached U (136×128 channels: 1.1 MB of 2×2-tile panels) splits at
  // least one block per executor instead; its 4×4-tile U (2.5 MB) does
  // not.
  const ConvGeometry mid{136, 16, 16, 3, 3, 1, 1};
  EXPECT_GE(winograd::block_count(mid, 128, 4, 2),
            std::min<std::size_t>(32, ThreadPool::global().executors()));
  EXPECT_EQ(winograd::block_count(mid, 128, 4, 4), 2u);
  EXPECT_EQ(winograd::kBlockMinElems / 16, 128u);
  EXPECT_EQ(winograd::kBlockMinElems / 36, 56u);
  EXPECT_FALSE(winograd::applicable(ConvGeometry{3, 8, 8, 3, 3, 2, 1}));
  EXPECT_FALSE(winograd::applicable(ConvGeometry{3, 8, 8, 1, 1, 1, 0}));
}

// --- AVX2 vs scalar transforms ---------------------------------------------
//
// Both paths instantiate one transform network (winograd_kernels.hpp)
// with only exact constant products, so they must agree bit for bit.
// The output side is compared under the activations whose scalar and
// vector forms are both exact (none, ReLU, leaky ReLU); SiLU and the
// sigmoid use fast_exp, whose vector and scalar forms round apart.

TEST(WinogradTransforms, Avx2MatchesScalarBitExact) {
  if (!simd::avx2_compiled() || simd::active() != simd::Level::kAvx2)
    GTEST_SKIP() << "AVX2 transforms unavailable";
  struct Shape {
    int in_c, h, w, pad;
  };
  // Full 8-tile blocks with padded borders, overlapping tails and
  // clipped edges, and rows of fewer than 8 tiles (one masked block).
  const Shape shapes[] = {{3, 13, 37, 1}, {2, 10, 64, 1}, {4, 9, 45, 0},
                          {3, 6, 34, 1},  {3, 13, 11, 1}, {2, 5, 30, 1},
                          {4, 9, 20, 0},  {2, 3, 3, 1}};
  const int out_c = 3;
  for (const int tile : winograd::kTiles) {
    for (const Shape& s : shapes) {
      SCOPED_TRACE(::testing::Message()
                   << "tile=" << tile << " h=" << s.h << " w=" << s.w);
      const ConvGeometry geom{s.in_c, s.h, s.w, 3, 3, 1, s.pad};
      const int th = winograd::tiles_h(geom, tile);
      const std::size_t ld = winograd::tile_count(geom, tile) + 5;
      const std::size_t elems =
          static_cast<std::size_t>(winograd::tile_elems(tile));
      Rng rng(static_cast<std::uint64_t>(41 + s.w + tile));
      Tensor image({1, s.in_c, s.h, s.w});
      image.init_uniform(rng, -3.0f, 3.0f);

      // Input transform, all tile rows, at a column offset.
      std::vector<float> v_simd(elems * s.in_c * ld, 0.0f);
      std::vector<float> v_scalar = v_simd;
      winograd::transform_input(image.data(), geom, tile, v_simd.data(), ld,
                                3, 0, th);
      simd::set_simd_enabled(false);
      winograd::transform_input(image.data(), geom, tile, v_scalar.data(),
                                ld, 3, 0, th);
      simd::set_simd_enabled(true);
      ASSERT_EQ(std::memcmp(v_simd.data(), v_scalar.data(),
                            v_simd.size() * sizeof(float)),
                0);

      // Output transform of random products, every mode × exact act.
      std::vector<float> m(elems * out_c * ld);
      for (float& x : m) x = static_cast<float>(rng.uniform(-4.0, 4.0));
      const std::vector<float> bias{0.25f, -0.5f, 0.125f};
      const std::size_t out_numel =
          static_cast<std::size_t>(out_c) * geom.out_h() * geom.out_w();
      std::vector<float> preload(out_numel);
      for (float& x : preload) x = static_cast<float>(rng.uniform(-1.0, 1.0));
      for (EpiMode mode : {EpiMode::kStore, EpiMode::kAccThenAct,
                           EpiMode::kActThenAcc}) {
        for (EpiAct act : {EpiAct::kNone, EpiAct::kRelu, EpiAct::kLeakyRelu}) {
          std::vector<float> out_simd = preload;
          std::vector<float> out_scalar = preload;
          winograd::transform_output(m.data(), ld, 3, geom, tile, out_c,
                                     bias.data(), act, mode, out_simd.data(),
                                     0, th);
          simd::set_simd_enabled(false);
          winograd::transform_output(m.data(), ld, 3, geom, tile, out_c,
                                     bias.data(), act, mode,
                                     out_scalar.data(), 0, th);
          simd::set_simd_enabled(true);
          ASSERT_EQ(std::memcmp(out_simd.data(), out_scalar.data(),
                                out_numel * sizeof(float)),
                    0)
              << "mode " << static_cast<int>(mode) << " act "
              << static_cast<int>(act);
        }
      }
    }
  }
}

// On AVX2 a clipped block (a row's last, short block) runs the same
// register epilogue as a full one. Two planes share their first 9
// tile columns: one is 9 tiles wide (the 9th is a clipped one-tile
// block), the other 16 (the 9th sits in a full block). The shared
// pixels must agree bit for bit under every activation, including
// SiLU and sigmoid, whose scalar and vector forms round apart.
TEST(WinogradTransforms, Avx2ClippedBlocksUseTheVectorEpilogue) {
  if (!simd::avx2_compiled() || simd::active() != simd::Level::kAvx2)
    GTEST_SKIP() << "AVX2 transforms unavailable";
  const int out_c = 2;
  for (const int tile : winograd::kTiles) {
    const int a = tile + 2;
    // One tile row; 9 tiles cover out_w = 9·tile − 1 (clipped by one
    // pixel), 16 tiles cover 16·tile exactly.
    const ConvGeometry narrow{1, tile + 2, 9 * tile + 1, 3, 3, 1, 0};
    const ConvGeometry wide{1, tile + 2, 16 * tile + 2, 3, 3, 1, 0};
    ASSERT_EQ(winograd::tile_count(narrow, tile), 9u);
    ASSERT_EQ(winograd::tile_count(wide, tile), 16u);
    const std::size_t ld_n = 9, ld_w = 16;
    Rng rng(static_cast<std::uint64_t>(77 + tile));
    std::vector<float> m_w(static_cast<std::size_t>(a * a) * out_c * ld_w);
    for (float& x : m_w) x = static_cast<float>(rng.uniform(-4.0, 4.0));
    std::vector<float> m_n(static_cast<std::size_t>(a * a) * out_c * ld_n);
    for (std::size_t r = 0; r < m_n.size() / ld_n; ++r)
      std::copy_n(m_w.begin() + static_cast<std::ptrdiff_t>(r * ld_w), ld_n,
                  m_n.begin() + static_cast<std::ptrdiff_t>(r * ld_n));
    const std::vector<float> bias{0.25f, -0.5f};
    const int ow_n = narrow.out_w(), ow_w = wide.out_w(), oh = tile;
    std::vector<float> pre_w(static_cast<std::size_t>(out_c) * oh * ow_w);
    for (float& x : pre_w) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    std::vector<float> pre_n(static_cast<std::size_t>(out_c) * oh * ow_n);
    for (int r = 0; r < out_c * oh; ++r)
      std::copy_n(pre_w.begin() + static_cast<std::ptrdiff_t>(r) * ow_w, ow_n,
                  pre_n.begin() + static_cast<std::ptrdiff_t>(r) * ow_n);
    for (EpiMode mode : {EpiMode::kStore, EpiMode::kAccThenAct,
                         EpiMode::kActThenAcc}) {
      for (EpiAct act : {EpiAct::kNone, EpiAct::kRelu, EpiAct::kLeakyRelu,
                         EpiAct::kSilu, EpiAct::kSigmoid}) {
        SCOPED_TRACE(::testing::Message()
                     << "tile=" << tile << " mode=" << static_cast<int>(mode)
                     << " act=" << static_cast<int>(act));
        std::vector<float> out_w = pre_w, out_n = pre_n;
        winograd::transform_output(m_w.data(), ld_w, 0, wide, tile, out_c,
                                   bias.data(), act, mode, out_w.data(), 0, 1);
        winograd::transform_output(m_n.data(), ld_n, 0, narrow, tile, out_c,
                                   bias.data(), act, mode, out_n.data(), 0, 1);
        for (int r = 0; r < out_c * oh; ++r)
          ASSERT_EQ(std::memcmp(out_n.data() + static_cast<std::size_t>(r) *
                                                   ow_n,
                                out_w.data() + static_cast<std::size_t>(r) *
                                                   ow_w,
                                static_cast<std::size_t>(ow_n) * sizeof(float)),
                    0)
              << "output row " << r;
      }
    }
  }
}

// --- Blocked driver properties ---------------------------------------------
//
// conv2d_winograd walks the batch's tile rows image-major in blocks
// (winograd::block_count) that may end mid-image and span several
// images. Each case below runs a batch through it with a gap of canary
// floats between the output images and past the last one, and checks
// every image against the per-image im2col oracle under the requested
// activation and residual EpiMode, for both tiles.

struct BlockCase {
  int in_c, h, w, out_c, batch;
};

constexpr float kCanary = -12345.5f;

/// Largest number of images one block's tile rows touch.
std::size_t max_images_per_block(const ConvGeometry& geom, int out_c,
                                 int batch, int tile) {
  const std::size_t th = static_cast<std::size_t>(winograd::tiles_h(geom, tile));
  const std::size_t rows = th * static_cast<std::size_t>(batch);
  const std::size_t blocks = winograd::block_count(geom, out_c, batch, tile);
  std::size_t most = 0;
  for (std::size_t s = 0; s < blocks; ++s) {
    const std::size_t g0 = s * rows / blocks;
    const std::size_t g1 = (s + 1) * rows / blocks;
    most = std::max(most, (g1 - 1) / th - g0 / th + 1);
  }
  return most;
}

void run_block_case(const BlockCase& c, nn::Act act, EpiMode mode, int tile,
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
  winograd::pack_weights(weight.data(), c.out_c, c.in_c, tile, panels);
  nn::ConvScratch scratch;
  nn::conv2d_winograd(inputs.data(), in_stride, c.batch, geom, tile, panels,
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

// Shapes for the block properties. Tile rows per image: h/tile rounded
// up; on AVX2, rows of tiles_w < 8 run as one masked register block,
// wider rows as full blocks plus a tail (2×2 tiles from out_w 15, 4×4
// tiles from out_w 29).
const BlockCase kBlockCases[] = {
    {3, 13, 11, 5, 1},   // odd out_h/out_w, under 8 tiles for both tiles
    {3, 13, 11, 5, 3},   // same, blocks spanning images
    {4, 9, 17, 6, 4},    // odd, 9 2×2-tile columns (AVX2 + clipped edge)
    {5, 26, 18, 7, 3},   // 13 / 7 tile rows per image: uneven heights
    {2, 6, 6, 3, 4},     // 3 / 2 tile rows: each block spans images
    {6, 2, 20, 4, 3},    // one tile row per image: blocks span 3 images
    {4, 9, 37, 6, 1},    // 10 4×4-tile columns (AVX2 + clipped edge)
    {4, 9, 37, 6, 3},    // ... blocks spanning images
    {3, 30, 34, 5, 3},   // 8 / 9 4×4-tile rows and columns, batch 3
    // U 1.1 MB (2×2 tiles: split per executor) or 2.5 MB (4×4 tiles:
    // past kUCachedBytes, so floor-wide blocks):
    {136, 16, 16, 128, 4},  // ... two 4×4 floor-wide blocks
    {136, 7, 9, 128, 3},    // ... one 4×4 block spanning all 3 odd images
    {136, 46, 16, 128, 1},  // ... 23 / 12 tile rows
    {200, 16, 16, 200, 3},  // U past kUCachedBytes for both tiles
};

TEST(WinogradBlocks, MatchIm2colAcrossBatchesAndBlockSplits) {
  for (const int tile : winograd::kTiles) {
    std::uint64_t seed = 500;
    std::size_t spans_two = 0, spans_three = 0, uneven = 0;
    for (const BlockCase& c : kBlockCases) {
      const ConvGeometry geom{c.in_c, c.h, c.w, 3, 3, 1, 1};
      const std::size_t rows =
          static_cast<std::size_t>(winograd::tiles_h(geom, tile)) * c.batch;
      const std::size_t blocks =
          winograd::block_count(geom, c.out_c, c.batch, tile);
      const std::size_t span =
          max_images_per_block(geom, c.out_c, c.batch, tile);
      if (span >= 2) ++spans_two;
      if (span >= 3) ++spans_three;
      if (rows % blocks != 0) ++uneven;
      SCOPED_TRACE(::testing::Message()
                   << "tile=" << tile << " in_c=" << c.in_c << " h=" << c.h
                   << " w=" << c.w << " out_c=" << c.out_c
                   << " batch=" << c.batch << " blocks=" << blocks);
      run_block_case(c, nn::Act::kSilu, EpiMode::kStore, tile, seed++);
    }
    // The shapes must actually exercise the properties they are for
    // (whatever the pool size, which moves the small-weight splits).
    EXPECT_GE(spans_two, 2u) << "tile " << tile;
    EXPECT_GE(spans_three, 1u) << "tile " << tile;
    EXPECT_GE(uneven, 1u) << "tile " << tile;
  }
}

TEST(WinogradBlocks, EveryEpiModeAndActivation) {
  for (const int tile : winograd::kTiles) {
    std::uint64_t seed = 700;
    for (const BlockCase& c :
         {BlockCase{3, 13, 11, 5, 3}, BlockCase{4, 9, 17, 6, 4},
          BlockCase{4, 9, 37, 6, 3}}) {
      for (EpiMode mode : {EpiMode::kStore, EpiMode::kAccThenAct,
                           EpiMode::kActThenAcc}) {
        for (nn::Act act : {nn::Act::kNone, nn::Act::kRelu,
                            nn::Act::kLeakyRelu, nn::Act::kSilu,
                            nn::Act::kSigmoid}) {
          SCOPED_TRACE(::testing::Message()
                       << "tile=" << tile << " w=" << c.w
                       << " mode=" << static_cast<int>(mode)
                       << " act=" << static_cast<int>(act));
          run_block_case(c, act, mode, tile, seed++);
        }
      }
    }
  }
}

TEST(WinogradBlocks, ScalarTransformsMatchTheOracleToo) {
  // Force the scalar transforms (the path of hosts without AVX2) on
  // every shape.
  simd::set_simd_enabled(false);
  for (const int tile : winograd::kTiles) {
    std::uint64_t seed = 900;
    for (const BlockCase& c : kBlockCases) {
      SCOPED_TRACE(::testing::Message()
                   << "tile=" << tile << " w=" << c.w << " batch=" << c.batch);
      run_block_case(c, nn::Act::kRelu, EpiMode::kActThenAcc, tile, seed++);
    }
  }
  simd::set_simd_enabled(true);
}

}  // namespace
}  // namespace ocb
