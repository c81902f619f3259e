// INT8 quantization tests: quantizer parameter derivation, packed
// int8 GEMM (scalar and AVX2 vs the i32 reference and vs FP32 within
// the documented quantization error bound), u8 im2col lowering, engine
// calibration / INT8 execution, and the MiniYolo export path. Runs
// under the `kernels` ctest label (also exercised under TSan in CI).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "models/mini_yolo.hpp"
#include "nn/engine.hpp"
#include "nn/quantize.hpp"
#include "tensor/im2col.hpp"
#include "tensor/qgemm.hpp"
#include "tensor/simd.hpp"

namespace ocb {
namespace {

using nn::QuantCalibration;
using nn::TensorQuant;
using nn::TensorRange;

std::vector<std::int8_t> random_s8(std::size_t n, Rng& rng) {
  std::vector<std::int8_t> v(n);
  for (auto& x : v)
    x = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  return v;
}

std::vector<std::uint8_t> random_u8_7bit(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> v(n);
  for (auto& x : v) x = static_cast<std::uint8_t>(rng.uniform_int(0, 127));
  return v;
}

float reference_epi_act(EpiAct act, float x) {
  switch (act) {
    case EpiAct::kNone: return x;
    case EpiAct::kRelu: return x < 0.0f ? 0.0f : x;
    case EpiAct::kLeakyRelu: return x < 0.0f ? kLeakySlope * x : x;
    case EpiAct::kSilu: return x / (1.0f + std::exp(-x));
    case EpiAct::kSigmoid: return 1.0f / (1.0f + std::exp(-x));
  }
  return x;
}

// --- quantizer parameters ---------------------------------------------

TEST(QuantParams, RangeIsWidenedToIncludeZero) {
  const TensorQuant pos = nn::quant_from_range(2.0f, 6.0f);
  EXPECT_EQ(pos.zero_point, 0);  // min clamps to 0 → zp 0
  EXPECT_NEAR(pos.scale, 6.0f / 127.0f, 1e-6f);

  const TensorQuant neg = nn::quant_from_range(-3.0f, -1.0f);
  EXPECT_EQ(neg.zero_point, 127);  // max clamps to 0 → zp at the top
  EXPECT_NEAR(neg.scale, 3.0f / 127.0f, 1e-6f);

  const TensorQuant sym = nn::quant_from_range(-1.0f, 1.0f);
  EXPECT_NEAR(sym.scale, 2.0f / 127.0f, 1e-6f);
  EXPECT_GT(sym.zero_point, 0);
  EXPECT_LT(sym.zero_point, 127);
}

TEST(QuantParams, DegenerateRangeFallsBackToIdentity) {
  const TensorQuant q = nn::quant_from_range(0.0f, 0.0f);
  EXPECT_FLOAT_EQ(q.scale, 1.0f);
  EXPECT_EQ(q.zero_point, 0);
}

TEST(QuantParams, RoundTripErrorBoundedByHalfScale) {
  Rng rng(7);
  std::vector<float> x(512);
  for (float& v : x) v = static_cast<float>(rng.uniform(-2.5, 4.0));
  TensorRange range;
  range.observe(x.data(), x.size());
  const TensorQuant q = nn::quant_from_range(range.mn, range.mx);

  std::vector<std::uint8_t> qx(x.size());
  std::vector<float> back(x.size());
  nn::quantize_to_u8(x.data(), x.size(), q, qx.data());
  nn::dequantize_u8(qx.data(), x.size(), q, back.data());
  for (std::size_t i = 0; i < x.size(); ++i)
    ASSERT_NEAR(back[i], x[i], q.scale * 0.5f + 1e-6f);
}

TEST(QuantParams, ObserverTracksMinMaxAcrossCalls) {
  TensorRange r;
  EXPECT_FALSE(r.valid());
  const float a[] = {1.0f, 2.0f};
  const float b[] = {-3.0f, 0.5f};
  r.observe(a, 2);
  r.observe(b, 2);
  EXPECT_TRUE(r.valid());
  EXPECT_FLOAT_EQ(r.mn, -3.0f);
  EXPECT_FLOAT_EQ(r.mx, 2.0f);
}

// --- packed INT8 GEMM vs the i32 reference ----------------------------

/// Run both kernel paths against qgemm_naive_i32 with an identity
/// epilogue (unit scales) so the float output must equal the integer
/// accumulator exactly (|acc| < 2^24 for these sizes).
void check_shape_against_naive(std::size_t m, std::size_t k, std::size_t n,
                               Rng& rng) {
  const auto a = random_s8(m * k, rng);
  const auto b = random_u8_7bit(k * n, rng);

  std::vector<std::int32_t> ref(m * n);
  qgemm_naive_i32(a.data(), b.data(), ref.data(), m, k, n);

  PackedQuantA packed;
  packed.pack(a.data(), m, k);
  EXPECT_EQ(packed.rows(), m);
  EXPECT_EQ(packed.cols(), k);
  std::vector<std::uint8_t> quads(quad_buffer_bytes(k, n));
  pack_u8_quads(b.data(), k, n, quads.data());

  const std::vector<float> scale(m, 1.0f);
  QGemmEpilogue epi;
  epi.scale = scale.data();

  for (GemmPath path : {GemmPath::kScalar, GemmPath::kAuto}) {
    QGemmConfig config;
    config.path = path;
    config.parallel = false;
    std::vector<float> c(m * n, -1.0f);
    qgemm_packed(packed, quads.data(), c.data(), n, epi, config);
    for (std::size_t i = 0; i < m * n; ++i)
      ASSERT_EQ(c[i], static_cast<float>(ref[i]))
          << "m=" << m << " k=" << k << " n=" << n << " path="
          << (path == GemmPath::kScalar ? "scalar" : "auto") << " idx=" << i;
  }
}

TEST(QGemm, ExhaustiveSmallShapesMatchNaiveReference) {
  Rng rng(101);
  // Every (m, k, n) remainder class around the 6-row × 16-col tile and
  // the 4-byte quad: covers full tiles, partial rows, partial quads and
  // sub-vector column tails on both kernel paths.
  for (std::size_t m : {1u, 2u, 5u, 6u, 7u, 12u, 13u})
    for (std::size_t k : {1u, 2u, 3u, 4u, 5u, 8u, 9u, 27u})
      for (std::size_t n : {1u, 3u, 7u, 8u, 15u, 16u, 17u, 33u})
        check_shape_against_naive(m, k, n, rng);
}

TEST(QGemm, LargeShapeCrossesColumnBlockBoundary) {
  Rng rng(103);
  check_shape_against_naive(19, 64, 1100, rng);  // > kColBlock columns
}

TEST(QGemm, SaturationFreeAtExtremes) {
  // Worst case for vpmaddubsw: max-magnitude weights against max
  // activations. The 7-bit activation convention guarantees the i16
  // intermediate cannot saturate; accumulation must be exact.
  const std::size_t m = 6, k = 64, n = 16;
  std::vector<std::int8_t> a(m * k);
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = (i % 2 == 0) ? std::int8_t{127} : std::int8_t{-127};
  std::vector<std::uint8_t> b(k * n, 127);

  std::vector<std::int32_t> ref(m * n);
  qgemm_naive_i32(a.data(), b.data(), ref.data(), m, k, n);

  PackedQuantA packed;
  packed.pack(a.data(), m, k);
  std::vector<std::uint8_t> quads(quad_buffer_bytes(k, n));
  pack_u8_quads(b.data(), k, n, quads.data());
  const std::vector<float> scale(m, 1.0f);
  QGemmEpilogue epi;
  epi.scale = scale.data();
  for (GemmPath path : {GemmPath::kScalar, GemmPath::kAuto}) {
    QGemmConfig config;
    config.path = path;
    std::vector<float> c(m * n);
    qgemm_packed(packed, quads.data(), c.data(), n, epi, config);
    for (std::size_t i = 0; i < m * n; ++i)
      ASSERT_EQ(c[i], static_cast<float>(ref[i]));
  }
}

TEST(QGemm, ScalarAndSimdEpiloguesAgree) {
  if (simd::active() != simd::Level::kAvx2)
    GTEST_SKIP() << "no AVX2 at runtime";
  Rng rng(107);
  const std::size_t m = 13, k = 21, n = 37;
  const auto a = random_s8(m * k, rng);
  const auto b = random_u8_7bit(k * n, rng);
  PackedQuantA packed;
  packed.pack(a.data(), m, k);
  std::vector<std::uint8_t> quads(quad_buffer_bytes(k, n));
  pack_u8_quads(b.data(), k, n, quads.data());

  std::vector<float> scale(m), bias(m);
  std::vector<std::int32_t> offset(m);
  for (std::size_t r = 0; r < m; ++r) {
    scale[r] = static_cast<float>(rng.uniform(1e-4, 2e-3));
    bias[r] = static_cast<float>(rng.uniform(-0.5, 0.5));
    offset[r] = static_cast<std::int32_t>(rng.uniform_int(-500, 500));
  }

  for (EpiAct act : {EpiAct::kNone, EpiAct::kRelu, EpiAct::kLeakyRelu,
                     EpiAct::kSilu, EpiAct::kSigmoid}) {
    QGemmEpilogue epi;
    epi.scale = scale.data();
    epi.row_offset = offset.data();
    epi.bias = bias.data();
    epi.act = act;
    QGemmConfig scalar_cfg;
    scalar_cfg.path = GemmPath::kScalar;
    QGemmConfig simd_cfg;
    simd_cfg.path = GemmPath::kSimd;
    std::vector<float> c_scalar(m * n), c_simd(m * n);
    qgemm_packed(packed, quads.data(), c_scalar.data(), n, epi, scalar_cfg);
    qgemm_packed(packed, quads.data(), c_simd.data(), n, epi, simd_cfg);
    for (std::size_t i = 0; i < m * n; ++i)
      ASSERT_NEAR(c_scalar[i], c_simd[i], 1e-4f)
          << "act=" << static_cast<int>(act) << " idx=" << i;
  }
}

TEST(QGemm, U8OutputMatchesRequantizedFloatOutput) {
  Rng rng(109);
  const std::size_t m = 11, k = 18, n = 29;
  const auto a = random_s8(m * k, rng);
  const auto b = random_u8_7bit(k * n, rng);
  PackedQuantA packed;
  packed.pack(a.data(), m, k);
  std::vector<std::uint8_t> quads(quad_buffer_bytes(k, n));
  pack_u8_quads(b.data(), k, n, quads.data());

  std::vector<float> scale(m);
  for (float& s : scale) s = static_cast<float>(rng.uniform(1e-4, 1e-3));
  QGemmEpilogue epi;
  epi.scale = scale.data();
  epi.act = EpiAct::kRelu;
  const float out_scale = 0.011f;
  const std::int32_t out_zp = 9;

  for (GemmPath path : {GemmPath::kScalar, GemmPath::kAuto}) {
    QGemmConfig config;
    config.path = path;
    std::vector<float> cf(m * n);
    std::vector<std::uint8_t> cu(m * n);
    qgemm_packed(packed, quads.data(), cf.data(), n, epi, config);
    qgemm_packed_u8(packed, quads.data(), cu.data(), n, out_scale, out_zp,
                    epi, config);
    for (std::size_t i = 0; i < m * n; ++i) {
      const long want = std::lrintf(cf[i] / out_scale) + out_zp;
      const long clamped = want < 0 ? 0 : (want > 127 ? 127 : want);
      // ±1 code: the float epilogue may round differently at half-way
      // points between the two paths.
      ASSERT_NEAR(static_cast<double>(cu[i]), static_cast<double>(clamped),
                  1.0)
          << "idx=" << i;
    }
  }
}

TEST(QGemm, ZeroSizedOperandsAreNoops) {
  PackedQuantA packed;  // empty
  QGemmEpilogue epi;
  const float scale = 1.0f;
  epi.scale = &scale;
  std::vector<float> c(4, 7.0f);
  qgemm_packed(packed, nullptr, c.data(), 4, epi);
  for (float v : c) EXPECT_FLOAT_EQ(v, 7.0f);  // untouched

  std::vector<std::int8_t> a(8, 1);
  packed.pack(a.data(), 2, 4);
  qgemm_packed(packed, nullptr, c.data(), 0, epi);  // n == 0
}

// --- FP32 vs INT8 within the documented quantization bound -------------

TEST(QGemm, QuantizedResultWithinDerivedErrorBoundOfFp32) {
  Rng rng(211);
  const std::size_t m = 24, k = 45, n = 50;
  std::vector<float> w(m * k), x(k * n);
  for (float& v : w) v = static_cast<float>(rng.uniform(-0.8, 0.8));
  for (float& v : x) v = static_cast<float>(rng.uniform(-1.5, 2.5));

  // FP32 reference.
  std::vector<float> ref(m * n, 0.0f);
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += w[r * k + p] * x[p * n + j];
      ref[r * n + j] = acc;
    }

  // Quantize activations (per-tensor) and weights (per-channel).
  TensorRange xr;
  xr.observe(x.data(), x.size());
  const TensorQuant xq = nn::quant_from_range(xr.mn, xr.mx);
  std::vector<std::uint8_t> xu(x.size());
  nn::quantize_to_u8(x.data(), x.size(), xq, xu.data());

  const nn::QuantizedLayer layer =
      nn::quantize_layer(w.data(), m, k, xq, TensorQuant{}, EpiAct::kNone);

  std::vector<std::uint8_t> quads(quad_buffer_bytes(k, n));
  pack_u8_quads(xu.data(), k, n, quads.data());
  std::vector<float> got(m * n);
  qgemm_packed(layer.packed, quads.data(), got.data(), n,
               layer.epilogue(nullptr));

  // Documented bound (DESIGN.md §8): rounding each activation by at
  // most s_x/2 perturbs row r's dot product by ≤ (Σ_k |w|)·s_x/2, and
  // rounding each weight by ≤ s_w[r]/2 adds ≤ (Σ_k |x|)·s_w[r]/2; the
  // cross term is second-order but included for a sound inequality.
  for (std::size_t r = 0; r < m; ++r) {
    float wsum = 0.0f, wmax = 0.0f;
    for (std::size_t p = 0; p < k; ++p) {
      wsum += std::fabs(w[r * k + p]);
      wmax = std::max(wmax, std::fabs(w[r * k + p]));
    }
    const float sw = wmax > 0.0f ? wmax / 127.0f : 1.0f;
    for (std::size_t j = 0; j < n; ++j) {
      float xsum = 0.0f;
      for (std::size_t p = 0; p < k; ++p) xsum += std::fabs(x[p * n + j]);
      const float bound = wsum * xq.scale * 0.5f + xsum * sw * 0.5f +
                          static_cast<float>(k) * xq.scale * sw * 0.25f +
                          1e-4f;
      ASSERT_NEAR(got[r * n + j], ref[r * n + j], bound)
          << "r=" << r << " j=" << j;
    }
  }
}

// --- u8 im2col ---------------------------------------------------------

TEST(Im2colU8, QuadPackerMatchesFloatIm2colQuantized) {
  Rng rng(223);
  const ConvGeometry geom{3, 9, 11, 3, 3, 2, 1};
  const std::size_t numel =
      static_cast<std::size_t>(geom.in_c) * geom.in_h * geom.in_w;
  std::vector<float> image(numel);
  for (float& v : image) v = static_cast<float>(rng.uniform(-1.0, 3.0));

  TensorRange r;
  r.observe(image.data(), numel);
  const TensorQuant q = nn::quant_from_range(r.mn, r.mx);
  std::vector<std::uint8_t> image_q(numel);
  nn::quantize_to_u8(image.data(), numel, q, image_q.data());

  const std::size_t rows = geom.col_rows();
  const std::size_t cols = geom.col_cols();
  std::vector<float> col(rows * cols);
  im2col(image.data(), geom, col.data());

  // One window over every column is the whole quad layout.
  std::vector<std::uint8_t> quads(quad_buffer_bytes(rows, cols), 0xEE);
  const Im2colQuadPanelPacker packer(
      image_q.data(), geom, static_cast<std::uint8_t>(q.zero_point));
  packer.pack(0, cols, quads.data());

  constexpr std::size_t Q = PackedQuantA::kQuadK;
  for (std::size_t kk = 0; kk < rows; ++kk)
    for (std::size_t j = 0; j < cols; ++j) {
      const std::uint8_t got = quads[(kk / Q) * cols * Q + j * Q + kk % Q];
      // Float im2col pads with 0.0, which quantizes to the zero-point —
      // so quantizing the float column must reproduce every byte.
      std::uint8_t want;
      nn::quantize_to_u8(&col[kk * cols + j], 1, q, &want);
      ASSERT_EQ(static_cast<int>(got), static_cast<int>(want))
          << "k=" << kk << " col=" << j;
    }
  // Trailing bytes of the final partial quad row are zeroed.
  if (rows % Q != 0)
    for (std::size_t kk = rows; kk < (rows + Q - 1) / Q * Q; ++kk)
      for (std::size_t j = 0; j < cols; ++j)
        ASSERT_EQ(quads[(kk / Q) * cols * Q + j * Q + kk % Q], 0u);
}

// --- engine calibration + INT8 execution -------------------------------

/// in → c1 → pool → c2 → c3 → head. `cut_at_c2` marks c2 (node 3) as
/// the output and stops there; weights are seeded per node index, so
/// c1 and c2 match the full graph's.
nn::Graph int8_test_graph(bool cut_at_c2 = false) {
  nn::Graph g;
  const int in = g.input(3, 24, 24);
  const int c1 = g.conv(in, 12, 3, 1, 1, nn::Act::kLeakyRelu, "c1");
  const int p1 = g.maxpool(c1, 2, 2, 0);
  const int c2 = g.conv(p1, 16, 3, 1, 1, nn::Act::kRelu, "c2");
  if (cut_at_c2) {
    g.mark_output(c2);
    return g;
  }
  const int c3 = g.conv(c2, 16, 3, 1, 1, nn::Act::kSilu, "c3");
  const int head = g.conv(c3, 5, 1, 1, 0, nn::Act::kNone, "head");
  g.mark_output(head);
  return g;
}

std::vector<Tensor> calib_frames(int count, std::uint64_t seed) {
  std::vector<Tensor> frames;
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    Tensor t({1, 3, 24, 24});
    t.init_uniform(rng, 0.0f, 1.0f);
    frames.push_back(std::move(t));
  }
  return frames;
}

TEST(EngineInt8, OutputsCloseToFp32AfterCalibration) {
  nn::Engine engine(int8_test_graph(), 41);
  const auto frames = calib_frames(4, 77);
  engine.calibrate(frames);

  Tensor probe({1, 3, 24, 24});
  Rng rng(99);
  probe.init_uniform(rng, 0.0f, 1.0f);
  const auto fp32 = engine.run(probe);

  const auto& plan = engine.prepare({.precision = nn::Precision::kInt8});
  EXPECT_EQ(engine.precision(), nn::Precision::kInt8);
  EXPECT_EQ(plan.precision, nn::Precision::kInt8);
  const auto int8 = engine.run(probe);

  ASSERT_EQ(fp32.size(), int8.size());
  float mn = fp32[0][0], mx = fp32[0][0];
  for (std::size_t i = 0; i < fp32[0].numel(); ++i) {
    mn = std::min(mn, fp32[0][i]);
    mx = std::max(mx, fp32[0][i]);
  }
  // Per-tensor 7-bit quantization across a 4-conv chain: each layer
  // contributes O(1%) of its output range; 8% of the final range is a
  // conservative deterministic envelope for this fixed seed set.
  const float tol = 0.08f * (mx - mn) + 1e-3f;
  for (std::size_t i = 0; i < fp32[0].numel(); ++i)
    ASSERT_NEAR(int8[0][i], fp32[0][i], tol) << "i=" << i;
}

TEST(EngineInt8, MidGraphNodeOutputDequantizesLazily) {
  // node_output() is exact only for graph outputs (and u8-resident
  // nodes), so the fp32 value of node 3 comes from the graph cut there.
  nn::Engine fp_engine(int8_test_graph(/*cut_at_c2=*/true), 43);
  nn::Engine q_engine(int8_test_graph(), 43);
  const auto frames = calib_frames(3, 55);
  q_engine.calibrate(frames);
  q_engine.prepare({.precision = nn::Precision::kInt8});

  Tensor probe({1, 3, 24, 24});
  Rng rng(5);
  probe.init_uniform(rng, 0.0f, 1.0f);
  fp_engine.run(probe);
  q_engine.run(probe);

  // Node 3 (conv c2) keeps its output in u8 mid-graph; node_output()
  // must still hand back a coherent float view.
  ASSERT_TRUE(q_engine.quant_state(3).emit_u8);
  const Tensor& fp_mid = fp_engine.node_output(3);
  const Tensor& q_mid = q_engine.node_output(3);
  ASSERT_EQ(fp_mid.numel(), q_mid.numel());
  float mx = 0.0f;
  for (std::size_t i = 0; i < fp_mid.numel(); ++i)
    mx = std::max(mx, std::fabs(fp_mid[i]));
  for (std::size_t i = 0; i < fp_mid.numel(); ++i)
    ASSERT_NEAR(q_mid[i], fp_mid[i], 0.08f * mx + 1e-3f) << "i=" << i;
}

TEST(EngineInt8, RunStaysArenaAllocationFreeAfterWarmup) {
  nn::Engine engine(int8_test_graph(), 47);
  const auto frames = calib_frames(2, 11);
  engine.calibrate(frames);
  engine.prepare({.precision = nn::Precision::kInt8});

  Tensor probe({1, 3, 24, 24}, 0.4f);
  engine.run(probe);
  const Arena::Stats warm = engine.scratch_arena().stats();
  EXPECT_EQ(warm.grows, 0u)
      << "prepare must extend the arena plan for the INT8 path";
  for (int i = 0; i < 5; ++i) engine.run(probe);
  const Arena::Stats after = engine.scratch_arena().stats();
  EXPECT_EQ(after.grows, 0u);
  EXPECT_EQ(after.block_allocs, warm.block_allocs);
  EXPECT_EQ(after.capacity_bytes, warm.capacity_bytes);
}

TEST(EngineInt8, RequiresCalibration) {
  nn::Engine engine(int8_test_graph(), 53);
  EXPECT_THROW(engine.prepare({.precision = nn::Precision::kInt8}), Error);
}

TEST(EngineInt8, WeightMutationRequantizesLazily) {
  nn::Engine engine(int8_test_graph(), 59);
  const auto frames = calib_frames(2, 21);
  engine.calibrate(frames);
  engine.prepare({.precision = nn::Precision::kInt8});

  Tensor probe({1, 3, 24, 24}, 0.3f);
  const auto before = engine.run(probe);
  engine.weight(1).fill(0.0f);
  const auto after = engine.run(probe);
  EXPECT_FALSE(allclose(before[0], after[0], 1e-6f))
      << "mutated weights must reach the int8 panels";
}

TEST(EngineInt8, SwitchingBackToFp32RestoresExactFp32Results) {
  nn::Engine engine(int8_test_graph(), 61);
  const auto frames = calib_frames(2, 31);
  engine.calibrate(frames);

  Tensor probe({1, 3, 24, 24}, 0.25f);
  // Plan fp32 through the planner first so both fp32 runs execute the
  // identical per-layer algorithms and can be compared bit-exactly.
  engine.prepare({});
  const auto fp32_a = engine.run(probe);
  engine.prepare({.precision = nn::Precision::kInt8});
  engine.run(probe);
  engine.prepare({.precision = nn::Precision::kFp32});
  const auto fp32_b = engine.run(probe);
  EXPECT_TRUE(allclose(fp32_a[0], fp32_b[0], 0.0f));
}

TEST(EngineInt8, ScalarAndSimdInt8PathsAgree) {
  nn::Engine engine(int8_test_graph(), 67);
  const auto frames = calib_frames(2, 41);
  engine.calibrate(frames);
  engine.prepare({.precision = nn::Precision::kInt8});

  Tensor probe({1, 3, 24, 24});
  Rng rng(71);
  probe.init_uniform(rng, 0.0f, 1.0f);
  const auto with_dispatch = engine.run(probe);
  simd::set_simd_enabled(false);
  const auto forced_scalar = engine.run(probe);
  simd::set_simd_enabled(true);

  for (std::size_t i = 0; i < with_dispatch[0].numel(); ++i)
    ASSERT_NEAR(with_dispatch[0][i], forced_scalar[0][i], 2e-3f) << i;
}

// --- MiniYolo export ---------------------------------------------------

TEST(MiniYoloExport, EngineFp32MatchesAutogradForward) {
  models::MiniYolo model(models::YoloFamily::kV8, models::YoloSize::kNano,
                         {}, 1234);
  nn::Engine engine(model.export_graph(), 1);
  model.export_weights(engine);

  Tensor batch({1, 3, 64, 64});
  Rng rng(81);
  batch.init_uniform(rng, 0.0f, 1.0f);
  const ag::Var logits = model.forward(batch);
  const auto out = engine.run(batch);

  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].numel(), logits->value.numel());
  for (std::size_t i = 0; i < out[0].numel(); ++i)
    ASSERT_NEAR(out[0][i], logits->value[i], 1e-3f) << "i=" << i;
}

TEST(MiniYoloExport, Int8DetectionRunsEndToEnd) {
  models::MiniYolo model(models::YoloFamily::kV8, models::YoloSize::kNano,
                         {}, 77);
  nn::Engine engine(model.export_graph(), 1);
  model.export_weights(engine);

  std::vector<Tensor> frames;
  Rng rng(17);
  for (int i = 0; i < 3; ++i) {
    Tensor t({1, 3, 64, 64});
    t.init_uniform(rng, 0.0f, 1.0f);
    frames.push_back(std::move(t));
  }
  engine.calibrate(frames);
  engine.prepare({.precision = nn::Precision::kInt8});

  Image img(80, 60, 3, 0.4f);
  // Untrained weights rarely fire above threshold; the contract under
  // test is that the INT8 engine path runs end to end and decodes.
  const auto dets = model.detect_with_engine(engine, img, 0.01f);
  for (const auto& d : dets) {
    EXPECT_GE(d.box.x0, 0.0f);
    EXPECT_LE(d.box.x1, 80.0f);
  }
}

}  // namespace
}  // namespace ocb
