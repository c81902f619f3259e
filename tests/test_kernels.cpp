// Kernel-layer tests: fused GEMM epilogues, fast activations, the
// inference arena, packed-weight caching and the engine's
// allocation-free steady state. Runs under the `kernels` ctest label
// (also exercised in the TSan CI configuration).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "nn/engine.hpp"
#include "nn/ops.hpp"
#include "tensor/arena.hpp"
#include "tensor/gemm.hpp"
#include "tensor/simd.hpp"

namespace ocb {
namespace {

std::vector<float> random_matrix(std::size_t rows, std::size_t cols,
                                 Rng& rng) {
  std::vector<float> m(rows * cols);
  for (float& v : m) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

float reference_act(EpiAct act, float x) {
  switch (act) {
    case EpiAct::kNone: return x;
    case EpiAct::kRelu: return x < 0.0f ? 0.0f : x;
    case EpiAct::kLeakyRelu: return x < 0.0f ? kLeakySlope * x : x;
    case EpiAct::kSilu: return x / (1.0f + std::exp(-x));
    case EpiAct::kSigmoid: return 1.0f / (1.0f + std::exp(-x));
  }
  return x;
}

// --- fast activations --------------------------------------------------

TEST(FastActivations, ExpMatchesStdExpWithinTwoUlp) {
  float max_rel = 0.0f;
  for (float x = -80.0f; x <= 80.0f; x += 0.0137f) {
    const float got = fast_exp(x);
    const float want = std::exp(x);
    const float rel = std::abs(got - want) / want;
    max_rel = std::max(max_rel, rel);
  }
  // Documented bound: ≈2 ULP ≈ 2.4e-7 relative. Enforce with headroom
  // but far tighter than the 1e-4 kernel equivalence tolerance.
  EXPECT_LT(max_rel, 5e-7f);
}

TEST(FastActivations, SigmoidAndSiluBoundedError) {
  float max_sig = 0.0f, max_silu = 0.0f;
  for (float x = -30.0f; x <= 30.0f; x += 0.0091f) {
    max_sig = std::max(max_sig,
                       std::abs(fast_sigmoid(x) - reference_act(EpiAct::kSigmoid, x)));
    max_silu = std::max(max_silu,
                        std::abs(fast_silu(x) - reference_act(EpiAct::kSilu, x)));
  }
  EXPECT_LT(max_sig, 1e-6f);
  EXPECT_LT(max_silu, 1e-5f);
}

TEST(FastActivations, ExpSaturatesSanely) {
  // The clamp sits at ±87, below float overflow, so that downstream
  // sigmoid/SiLU values stay NORMAL: 1/(1+e^88) would be denormal and
  // denormal operands cost a ~30-100 cycle microcode assist per op
  // (see fast_exp in gemm.cpp).
  EXPECT_GT(fast_exp(88.0f), 6e37f);
  EXPECT_LT(fast_exp(-88.0f), 2e-38f);
  EXPECT_FLOAT_EQ(fast_sigmoid(100.0f), 1.0f);
  EXPECT_NEAR(fast_sigmoid(-100.0f), 0.0f, 1e-30f);
  EXPECT_GE(fast_sigmoid(-100.0f), 1.17549435e-38f)  // FLT_MIN: normal
      << "saturated sigmoid must not produce a denormal";
}

// --- fused epilogues ---------------------------------------------------

class EpilogueTest : public ::testing::TestWithParam<EpiAct> {};

TEST_P(EpilogueTest, FusedMatchesUnfusedReference) {
  const EpiAct act = GetParam();
  Rng rng(11);
  const std::size_t m = 13, k = 27, n = 37;  // tails in every dimension
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  std::vector<float> bias(m);
  for (float& v : bias) v = static_cast<float>(rng.uniform(-2.0, 2.0));

  std::vector<float> fused(m * n);
  gemm_ex(a.data(), b.data(), fused.data(), m, k, n, false,
          GemmEpilogue{bias.data(), act});

  std::vector<float> ref(m * n);
  gemm_naive(a.data(), b.data(), ref.data(), m, k, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      ref[i * n + j] = reference_act(act, ref[i * n + j] + bias[i]);

  for (std::size_t i = 0; i < fused.size(); ++i)
    ASSERT_NEAR(fused[i], ref[i], 1e-4f) << "act=" << static_cast<int>(act);
}

TEST_P(EpilogueTest, PackedFusedMatchesUnfusedReference) {
  const EpiAct act = GetParam();
  Rng rng(13);
  const std::size_t m = 20, k = 9, n = 23;
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  std::vector<float> bias(m);
  for (float& v : bias) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  PackedA packed(a.data(), m, k);
  std::vector<float> fused(m * n);
  gemm_packed(packed, b.data(), fused.data(), n, false,
              GemmEpilogue{bias.data(), act});

  std::vector<float> ref(m * n);
  gemm_naive(a.data(), b.data(), ref.data(), m, k, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      ref[i * n + j] = reference_act(act, ref[i * n + j] + bias[i]);

  for (std::size_t i = 0; i < fused.size(); ++i)
    ASSERT_NEAR(fused[i], ref[i], 1e-4f) << "act=" << static_cast<int>(act);
}

INSTANTIATE_TEST_SUITE_P(Acts, EpilogueTest,
                         ::testing::Values(EpiAct::kNone, EpiAct::kRelu,
                                           EpiAct::kLeakyRelu, EpiAct::kSilu,
                                           EpiAct::kSigmoid));

TEST(Epilogue, ActiveEpilogueWithAccumulateThrows) {
  std::vector<float> a(4, 1.0f), b(4, 1.0f), c(4, 0.0f), bias(2, 1.0f);
  EXPECT_THROW(gemm_ex(a.data(), b.data(), c.data(), 2, 2, 2,
                       /*accumulate=*/true, GemmEpilogue{bias.data(), EpiAct::kRelu}),
               Error);
}

TEST(Epilogue, ScalarAndSimdPathsAgree) {
  Rng rng(17);
  const std::size_t m = 19, k = 33, n = 41;
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  std::vector<float> bias(m, 0.25f);
  const GemmEpilogue epi{bias.data(), EpiAct::kSilu};

  GemmConfig scalar;
  scalar.path = GemmPath::kScalar;
  GemmConfig auto_path;  // SIMD when available

  std::vector<float> c_scalar(m * n), c_auto(m * n);
  gemm_ex(a.data(), b.data(), c_scalar.data(), m, k, n, false, epi, scalar);
  gemm_ex(a.data(), b.data(), c_auto.data(), m, k, n, false, epi, auto_path);
  for (std::size_t i = 0; i < c_scalar.size(); ++i)
    ASSERT_NEAR(c_scalar[i], c_auto[i], 1e-4f);
}

// --- arena -------------------------------------------------------------

TEST(Arena, BumpAllocatesWithinReservedBlock) {
  Arena arena;
  arena.reserve_bytes(1024);
  EXPECT_EQ(arena.stats().block_allocs, 1u);
  float* a = arena.alloc_floats(64);
  float* b = arena.alloc_floats(64);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_EQ(arena.stats().grows, 0u);
  EXPECT_EQ(arena.stats().block_allocs, 1u);
  // 32-byte alignment for vector loads.
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % Arena::kAlign, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % Arena::kAlign, 0u);
}

TEST(Arena, ResetReusesStorageWithoutNewBlocks) {
  Arena arena;
  arena.reserve_bytes(256 * sizeof(float));
  float* first = arena.alloc_floats(256);
  arena.reset();
  float* second = arena.alloc_floats(256);
  EXPECT_EQ(first, second);
  EXPECT_EQ(arena.stats().grows, 0u);
  EXPECT_EQ(arena.stats().block_allocs, 1u);
}

TEST(Arena, GrowsWhenPlanUnderReserved) {
  Arena arena;
  arena.reserve_bytes(64);
  (void)arena.alloc_floats(16);
  (void)arena.alloc_floats(1024);  // outgrows the plan
  EXPECT_EQ(arena.stats().grows, 1u);
  EXPECT_EQ(arena.stats().block_allocs, 2u);
  arena.reset();
  (void)arena.alloc_floats(16);
  (void)arena.alloc_floats(1024);  // now satisfied by the grown block
  EXPECT_EQ(arena.stats().grows, 1u);
  EXPECT_EQ(arena.stats().block_allocs, 2u);
}

TEST(Arena, ZeroSizeAllocReturnsDistinctAlignedPointers) {
  Arena arena;
  arena.reserve_bytes(256);
  void* a = arena.alloc(0);
  void* b = arena.alloc(0);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);  // each zero-size alloc still owns a unique slot
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % Arena::kAlign, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % Arena::kAlign, 0u);
  EXPECT_EQ(arena.stats().grows, 0u);
}

TEST(Arena, MixedByteAndFloatAllocsStayAligned) {
  // The INT8 path interleaves u8 quad buffers with float scratch; every
  // pointer must stay 32-byte aligned regardless of the previous
  // alloc's size.
  Arena arena;
  arena.reserve_bytes(4096);
  for (std::size_t odd : {1u, 3u, 7u, 13u, 33u}) {
    auto* bytes = static_cast<std::uint8_t*>(arena.alloc(odd));
    float* floats = arena.alloc_floats(5);
    ASSERT_NE(bytes, nullptr);
    ASSERT_NE(floats, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(bytes) % Arena::kAlign, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(floats) % Arena::kAlign, 0u);
  }
  EXPECT_EQ(arena.stats().grows, 0u);
}

TEST(Arena, ResetThenReallocReusesMixedSizeSequence) {
  Arena arena;
  arena.reserve_bytes(2048);
  void* a1 = arena.alloc(100);
  void* b1 = arena.alloc(1000);
  arena.reset();
  void* a2 = arena.alloc(100);
  void* b2 = arena.alloc(1000);
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(b1, b2);
  EXPECT_EQ(arena.stats().block_allocs, 1u);
  EXPECT_EQ(arena.stats().grows, 0u);
}

TEST(Arena, OverCapacitySingleAllocGrowsOnceThenStabilises) {
  Arena arena;
  arena.reserve_bytes(128);
  // One request larger than total capacity must still succeed.
  void* big = arena.alloc(100000);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(arena.stats().grows, 1u);
  arena.reset();
  void* again = arena.alloc(100000);
  EXPECT_EQ(big, again);  // grown block is retained and reused
  EXPECT_EQ(arena.stats().grows, 1u);
}

TEST(Arena, PeakTracksHighWater) {
  Arena arena;
  arena.reserve_bytes(4096);
  (void)arena.alloc_floats(100);
  arena.reset();
  (void)arena.alloc_floats(10);
  EXPECT_GE(arena.stats().peak_bytes, 100 * sizeof(float));
  // 10 floats = 40 bytes, bumped to the next 32-byte boundary.
  EXPECT_EQ(arena.stats().cycle_bytes, 2 * Arena::kAlign);
}

// --- packed conv / engine steady state --------------------------------

nn::Graph conv_graph() {
  nn::Graph g;
  const int in = g.input(3, 24, 24);
  const int c1 = g.conv(in, 10, 3, 1, 1, nn::Act::kSilu, "c1");
  const int c2 = g.conv(c1, 7, 3, 2, 1, nn::Act::kRelu, "c2");
  const int c3 = g.conv(c2, 4, 1, 1, 0, nn::Act::kSigmoid, "head");
  g.mark_output(c3);
  return g;
}

TEST(PackedConv, MatchesPointerWeightConv) {
  Rng rng(23);
  const ConvGeometry geom{5, 12, 12, 3, 3, 1, 1};
  const int out_c = 9;
  const auto input = random_matrix(5, 12 * 12, rng);
  const auto weight = random_matrix(out_c, geom.col_rows(), rng);
  std::vector<float> bias(out_c, 0.5f);

  std::vector<float> out_ptr(out_c * geom.col_cols());
  std::vector<float> out_packed(out_c * geom.col_cols());
  nn::ConvScratch s1, s2;
  nn::conv2d(input.data(), geom, out_c, weight.data(), bias.data(),
             nn::Act::kSilu, out_ptr.data(), s1);
  PackedA packed(weight.data(), out_c, geom.col_rows());
  nn::conv2d_fused(input.data(), 5 * 12 * 12, 1, geom, packed, bias.data(),
                   nn::Act::kSilu, out_packed.data(), out_packed.size(), s2);
  for (std::size_t i = 0; i < out_ptr.size(); ++i)
    ASSERT_NEAR(out_ptr[i], out_packed[i], 1e-5f);
}

TEST(Engine, RunIsArenaAllocationFreeAfterWarmup) {
  nn::Engine engine(conv_graph(), 3);
  Tensor input({1, 3, 24, 24}, 0.3f);
  engine.run(input);
  const Arena::Stats warm = engine.scratch_arena().stats();
  EXPECT_EQ(warm.grows, 0u) << "construction plan must cover the first frame";
  for (int i = 0; i < 5; ++i) engine.run(input);
  const Arena::Stats after = engine.scratch_arena().stats();
  EXPECT_EQ(after.grows, 0u);
  EXPECT_EQ(after.block_allocs, warm.block_allocs);
  EXPECT_EQ(after.capacity_bytes, warm.capacity_bytes);
  EXPECT_EQ(after.peak_bytes, warm.peak_bytes);
}

TEST(Engine, WeightMutationRepacksLazily) {
  nn::Engine engine(conv_graph(), 5);
  Tensor input({1, 3, 24, 24}, 0.2f);
  const auto before = engine.run(input);

  engine.weight(1).fill(0.0f);  // c1 contributes nothing but its bias now
  const auto after = engine.run(input);
  EXPECT_FALSE(allclose(before[0], after[0], 1e-6f))
      << "mutated weights must take effect (stale packed panels?)";

  // A second engine built with already-zero weights must agree exactly
  // with the lazily repacked one.
  nn::Engine fresh(conv_graph(), 5);
  fresh.weight(1).fill(0.0f);
  const auto expect = fresh.run(input);
  EXPECT_TRUE(allclose(after[0], expect[0], 1e-6f));
}

TEST(Engine, ScalarAndSimdPathsProduceSameOutputs) {
  nn::Engine engine(conv_graph(), 9);
  Tensor input({1, 3, 24, 24});
  Rng rng(31);
  input.init_uniform(rng, 0.0f, 1.0f);

  const auto with_dispatch = engine.run(input);
  simd::set_simd_enabled(false);
  const auto forced_scalar = engine.run(input);
  simd::set_simd_enabled(true);

  ASSERT_EQ(with_dispatch.size(), forced_scalar.size());
  for (std::size_t i = 0; i < with_dispatch[0].numel(); ++i)
    ASSERT_NEAR(with_dispatch[0][i], forced_scalar[0][i], 1e-4f);
}

TEST(Simd, DispatchReportsCoherentState) {
  const simd::Level level = simd::active();
  if (level == simd::Level::kAvx2) {
    EXPECT_TRUE(simd::avx2_compiled());
    EXPECT_TRUE(simd::cpu_supports_avx2());
  }
  simd::set_simd_enabled(false);
  EXPECT_EQ(simd::active(), simd::Level::kScalar);
  simd::set_simd_enabled(true);
  EXPECT_EQ(simd::active(), level);
}

}  // namespace
}  // namespace ocb
