// Property tests for the packed GEMM kernels: seeded-random shapes —
// degenerate (1×), prime, and larger than every tile/block boundary —
// across accumulate on/off and all fused epilogues, asserting that the
// SIMD path, the scalar path and the packed-panel path all agree with
// the naive reference within tolerance. Runs under the `kernels` ctest
// label (Release, TSan and ASan+UBSan CI configurations).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/rng.hpp"
#include "nn/ops.hpp"
#include "nn/quantize.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_kernels.hpp"
#include "tensor/qgemm.hpp"
#include "tensor/sgemm_sparse.hpp"

namespace ocb {
namespace {

// Shape pool mixing the adversarial sizes: 1 (degenerate), primes that
// dodge every tile width, exact tile/vector widths, and sizes past the
// AVX2 6-row tile, the 16/8-column register tiles and the 512-column
// cache block.
constexpr std::size_t kDims[] = {1, 2, 3, 5, 6, 7, 13, 16, 17, 31, 37, 64};
constexpr std::size_t kWideN[] = {127, 256, 509, 520, 640};

std::size_t draw_dim(Rng& rng) {
  return kDims[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(std::size(kDims)) - 1))];
}

std::vector<float> random_matrix(std::size_t rows, std::size_t cols,
                                 Rng& rng) {
  std::vector<float> m(rows * cols);
  for (float& v : m) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

float reference_act(EpiAct act, float x) {
  // The kernels' own fast activations are the contract (bit-identical
  // scalar/SIMD polynomials); the fast-vs-std error bound is asserted
  // separately in test_kernels.cpp.
  return apply_epi_act(act, x);
}

struct Fp32Case {
  std::size_t m, k, n;
  bool accumulate;
  EpiAct act;
  bool with_bias;
};

void check_fp32_case(const Fp32Case& c, Rng& rng) {
  SCOPED_TRACE(::testing::Message()
               << "m=" << c.m << " k=" << c.k << " n=" << c.n
               << " accumulate=" << c.accumulate
               << " act=" << static_cast<int>(c.act)
               << " bias=" << c.with_bias);
  const auto a = random_matrix(c.m, c.k, rng);
  const auto b = random_matrix(c.k, c.n, rng);
  const auto c0 = random_matrix(c.m, c.n, rng);  // initial C (accumulate)
  std::vector<float> bias(c.m);
  for (float& v : bias) v = static_cast<float>(rng.uniform(-0.5, 0.5));

  GemmEpilogue epilogue;
  if (!c.accumulate) {
    epilogue.bias = c.with_bias ? bias.data() : nullptr;
    epilogue.act = c.act;
  }

  // Oracle: naive triple loop + scalar epilogue.
  std::vector<float> want = c0;
  gemm_naive(a.data(), b.data(), want.data(), c.m, c.k, c.n, c.accumulate);
  if (epilogue.active()) {
    for (std::size_t i = 0; i < c.m; ++i) {
      for (std::size_t j = 0; j < c.n; ++j) {
        float v = want[i * c.n + j];
        if (epilogue.bias != nullptr) v += bias[i];
        want[i * c.n + j] = reference_act(epilogue.act, v);
      }
    }
  }

  const float tol =
      1e-4f * std::max<float>(1.0f, static_cast<float>(c.k) * 0.05f);
  const auto expect_close = [&](const std::vector<float>& got,
                                const char* path) {
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_NEAR(got[i], want[i], tol) << path << " at " << i;
    }
  };

  for (GemmPath path : {GemmPath::kScalar, GemmPath::kSimd}) {
    GemmConfig config;
    config.path = path;
    const char* label = path == GemmPath::kScalar ? "scalar" : "simd";
    std::vector<float> got = c0;
    gemm_ex(a.data(), b.data(), got.data(), c.m, c.k, c.n, c.accumulate,
            epilogue, config);
    expect_close(got, label);

    std::vector<float> got_packed = c0;
    const PackedA packed(a.data(), c.m, c.k);
    gemm_packed(packed, b.data(), got_packed.data(), c.n, c.accumulate,
                epilogue, config);
    expect_close(got_packed, label);
  }
}

TEST(GemmProperty, SeededRandomShapesAllPathsAgree) {
  Rng rng(20260807);
  constexpr EpiAct kActs[] = {EpiAct::kNone, EpiAct::kRelu,
                              EpiAct::kLeakyRelu, EpiAct::kSilu,
                              EpiAct::kSigmoid};
  for (int trial = 0; trial < 48; ++trial) {
    Fp32Case c;
    c.m = draw_dim(rng);
    c.k = draw_dim(rng);
    c.n = draw_dim(rng);
    c.accumulate = rng.uniform() < 0.3;
    c.act = kActs[static_cast<std::size_t>(rng.uniform_int(0, 4))];
    c.with_bias = rng.uniform() < 0.7;
    check_fp32_case(c, rng);
  }
}

TEST(GemmProperty, WideColumnsCrossCacheBlocks) {
  // N past the 512-column block and the 16/8-column register tiles,
  // including primes that leave scalar tails.
  Rng rng(7);
  for (std::size_t n : kWideN) {
    Fp32Case c{/*m=*/13, /*k=*/31, n, /*accumulate=*/false,
               EpiAct::kLeakyRelu, /*with_bias=*/true};
    check_fp32_case(c, rng);
    Fp32Case acc{/*m=*/7, /*k=*/17, n, /*accumulate=*/true, EpiAct::kNone,
                 /*with_bias=*/false};
    check_fp32_case(acc, rng);
  }
}

TEST(GemmProperty, DegenerateOneByOne) {
  Rng rng(3);
  for (EpiAct act : {EpiAct::kNone, EpiAct::kSigmoid}) {
    check_fp32_case(Fp32Case{1, 1, 1, false, act, true}, rng);
  }
  check_fp32_case(Fp32Case{1, 64, 1, true, EpiAct::kNone, false}, rng);
}

// --- n % 8 column tail (gemm_avx2.cpp masked register tile) ----------------

/// Column counts exercising every tail width: alone (n < 8) and behind
/// one 8-column tile, one 16-column tile and both (8k + 1 .. 8k + 7).
std::vector<std::size_t> tail_widths() {
  std::vector<std::size_t> ns;
  for (std::size_t base : {0, 8, 16, 24})
    for (std::size_t r = 1; r <= 7; ++r) ns.push_back(base + r);
  return ns;
}

/// One epilogue configuration of the tail sweep.
struct TailEpilogue {
  bool accumulate;
  EpiMode mode;
  EpiAct act;
};

constexpr TailEpilogue kTailEpilogues[] = {
    {true, EpiMode::kStore, EpiAct::kNone},
    {false, EpiMode::kStore, EpiAct::kNone},
    {false, EpiMode::kStore, EpiAct::kRelu},
    {false, EpiMode::kStore, EpiAct::kSilu},
    {false, EpiMode::kAccThenAct, EpiAct::kSigmoid},
    {false, EpiMode::kActThenAcc, EpiAct::kLeakyRelu},
};

constexpr float kCanary = 12345.0f;

/// C (m rows of stride ldc) = epilogue(A·B) against gemm_naive, with
/// every row's columns [n, ldc) — and the floats past C's end — holding
/// canaries the kernel must never write.
void check_tail_case(std::size_t m, std::size_t k, std::size_t n,
                     std::size_t ldb, std::size_t ldc,
                     const TailEpilogue& e, Rng& rng) {
  SCOPED_TRACE(::testing::Message()
               << "m=" << m << " k=" << k << " n=" << n << " ldb=" << ldb
               << " ldc=" << ldc << " accumulate=" << e.accumulate
               << " mode=" << static_cast<int>(e.mode)
               << " act=" << static_cast<int>(e.act));
  const auto a = random_matrix(m, k, rng);
  const auto b_dense = random_matrix(k, n, rng);
  const auto c0 = random_matrix(m, n, rng);
  std::vector<float> bias(m);
  for (float& v : bias) v = static_cast<float>(rng.uniform(-0.5, 0.5));

  // B padded to row stride ldb; the padding is NaN so any lane that
  // read it would poison the row it belongs to.
  std::vector<float> b(k * ldb, std::nanf(""));
  for (std::size_t r = 0; r < k; ++r)
    std::copy_n(b_dense.data() + r * n, n, b.data() + r * ldb);

  std::vector<float> acc(m * n, 0.0f);
  gemm_naive(a.data(), b_dense.data(), acc.data(), m, k, n);
  std::vector<float> want(m * n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const float prior = c0[i * n + j];
      const float v = acc[i * n + j];
      float& w = want[i * n + j];
      if (e.accumulate) {
        w = prior + v;
      } else if (e.mode == EpiMode::kStore) {
        w = reference_act(e.act, v + bias[i]);
      } else if (e.mode == EpiMode::kAccThenAct) {
        w = reference_act(e.act, prior + v + bias[i]);
      } else {
        w = prior + reference_act(e.act, v + bias[i]);
      }
    }
  }

  std::vector<float> c(m * ldc + 8, kCanary);
  for (std::size_t i = 0; i < m; ++i)
    std::copy_n(c0.data() + i * n, n, c.data() + i * ldc);
  const PackedA packed(a.data(), m, k);
  GemmEpilogue epilogue;
  if (!e.accumulate) epilogue = GemmEpilogue{bias.data(), e.act, e.mode};
  if (ldb == n && ldc == n) {
    GemmConfig config;
    config.path = GemmPath::kSimd;
    gemm_packed(packed, b.data(), c.data(), n, e.accumulate, epilogue,
                config);
  } else {
    ASSERT_FALSE(e.accumulate) << "the stripe path never accumulates";
    if (simd::active() == simd::Level::kAvx2) {
      detail::gemm_packed_avx2(packed, b.data(), ldb, c.data(), ldc, n,
                               /*accumulate=*/false, epilogue,
                               /*parallel=*/true);
    } else {
      detail::gemm_packed_scalar(packed, b.data(), ldb, c.data(), ldc, n,
                                 /*accumulate=*/false, epilogue,
                                 /*parallel=*/true);
    }
  }

  const float tol =
      1e-4f * std::max<float>(1.0f, static_cast<float>(k) * 0.05f);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < ldc; ++j) {
      const float got = c[i * ldc + j];
      if (j < n) {
        ASSERT_NEAR(got, want[i * n + j], tol) << "C[" << i << "][" << j << "]";
      } else {
        ASSERT_EQ(got, kCanary) << "canary C[" << i << "][" << j << "]";
      }
    }
  }
  for (std::size_t t = m * ldc; t < c.size(); ++t)
    ASSERT_EQ(c[t], kCanary) << "canary past C's end at " << t;
}

TEST(GemmTailProperty, PackedTailMatchesNaiveAndSparesCanaries) {
  Rng rng(41);
  for (std::size_t n : tail_widths())
    for (const TailEpilogue& e : kTailEpilogues)
      for (std::size_t m : {1, 6, 13})
        check_tail_case(m, /*k=*/17, n, n, n, e, rng);
}

TEST(GemmTailProperty, StripeTailMatchesNaiveAndSparesCanaries) {
  // The fused stripe path: B and C windows narrower than their row
  // strides, so the canaries sit inside every row.
  Rng rng(43);
  for (std::size_t n : tail_widths())
    for (const TailEpilogue& e : kTailEpilogues) {
      if (e.accumulate) continue;
      for (std::size_t m : {1, 7})
        check_tail_case(m, /*k=*/5, n, n + 3, n + 9, e, rng);
    }
}

// --- compressed-storage GEMM (sgemm_sparse.hpp) ----------------------------

// Sparse/half cases reuse the fp32 harness idea: build the exact fp32
// matrix the compressed kernel is defined to compute with (masked
// and/or rounded through the 16-bit format), run the naive oracle over
// it, and require both GemmPath variants of the packed kernel to agree
// within the dense tolerance — the only remaining slack is summation
// order, identical in kind to the dense tests above.

struct StorageCase {
  std::size_t m, k, n;
  bool accumulate;
  EpiAct act;
  bool with_bias;
  double keep;  ///< Bernoulli keep probability for the sparse mask
};

// Independent per-element keep decisions are harsher than the pruner's
// structured masks: rows of one packing tile disagree, so the packed
// panel stores the per-panel union with exact zeros in the holes.
std::vector<std::uint8_t> random_mask(std::size_t count, double keep,
                                      Rng& rng) {
  std::vector<std::uint8_t> mask(count);
  for (auto& v : mask) v = rng.uniform() < keep ? 1 : 0;
  return mask;
}

float half_roundtrip(float v, HalfFormat format) {
  return half_bits_to_float(float_to_half_bits(v, format), format);
}

// Shared tail: oracle over `a_eff` (the masked/rounded matrix), then
// both kernel paths against it.
void check_against_effective(const StorageCase& c,
                             const std::vector<float>& a_eff,
                             const std::vector<float>& b,
                             const std::vector<float>& c0,
                             const std::vector<float>& bias,
                             const GemmEpilogue& epilogue,
                             const PackedHalfA* half_a,
                             const PackedSparseA* sparse_a) {
  std::vector<float> want = c0;
  gemm_naive(a_eff.data(), b.data(), want.data(), c.m, c.k, c.n,
             c.accumulate);
  if (epilogue.active()) {
    for (std::size_t i = 0; i < c.m; ++i) {
      for (std::size_t j = 0; j < c.n; ++j) {
        float v = want[i * c.n + j];
        if (epilogue.bias != nullptr) v += bias[i];
        want[i * c.n + j] = reference_act(epilogue.act, v);
      }
    }
  }

  const float tol =
      1e-4f * std::max<float>(1.0f, static_cast<float>(c.k) * 0.05f);
  for (GemmPath path : {GemmPath::kScalar, GemmPath::kSimd}) {
    GemmConfig config;
    config.path = path;
    const char* label = path == GemmPath::kScalar ? "scalar" : "simd";
    std::vector<float> got = c0;
    if (half_a != nullptr) {
      gemm_packed_half(*half_a, b.data(), got.data(), c.n, c.accumulate,
                       epilogue, config);
    } else {
      gemm_packed_sparse(*sparse_a, b.data(), got.data(), c.n, c.accumulate,
                         epilogue, config);
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_NEAR(got[i], want[i], tol) << label << " at " << i;
    }
  }
}

void check_half_case(const StorageCase& c, HalfFormat format, Rng& rng) {
  SCOPED_TRACE(::testing::Message()
               << "half m=" << c.m << " k=" << c.k << " n=" << c.n
               << " accumulate=" << c.accumulate
               << " act=" << static_cast<int>(c.act) << " bias="
               << c.with_bias << " format=" << half_format_name(format));
  const auto a = random_matrix(c.m, c.k, rng);
  const auto b = random_matrix(c.k, c.n, rng);
  const auto c0 = random_matrix(c.m, c.n, rng);
  std::vector<float> bias(c.m);
  for (float& v : bias) v = static_cast<float>(rng.uniform(-0.5, 0.5));

  GemmEpilogue epilogue;
  if (!c.accumulate) {
    epilogue.bias = c.with_bias ? bias.data() : nullptr;
    epilogue.act = c.act;
  }

  // The kernel computes with the rounded weights — so does the oracle.
  std::vector<float> a_eff(a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    a_eff[i] = half_roundtrip(a[i], format);

  PackedHalfA packed;
  packed.pack(a.data(), c.m, c.k, format);
  check_against_effective(c, a_eff, b, c0, bias, epilogue, &packed, nullptr);
}

void check_sparse_case(const StorageCase& c, bool half, HalfFormat format,
                       Rng& rng) {
  SCOPED_TRACE(::testing::Message()
               << "sparse m=" << c.m << " k=" << c.k << " n=" << c.n
               << " accumulate=" << c.accumulate
               << " act=" << static_cast<int>(c.act) << " bias="
               << c.with_bias << " keep=" << c.keep << " half=" << half);
  const auto a = random_matrix(c.m, c.k, rng);
  const auto b = random_matrix(c.k, c.n, rng);
  const auto c0 = random_matrix(c.m, c.n, rng);
  std::vector<float> bias(c.m);
  for (float& v : bias) v = static_cast<float>(rng.uniform(-0.5, 0.5));
  const auto mask = random_mask(c.m * c.k, c.keep, rng);

  GemmEpilogue epilogue;
  if (!c.accumulate) {
    epilogue.bias = c.with_bias ? bias.data() : nullptr;
    epilogue.act = c.act;
  }

  std::vector<float> a_eff(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    a_eff[i] = mask[i] == 0 ? 0.0f
               : half      ? half_roundtrip(a[i], format)
                           : a[i];
  }

  PackedSparseA packed;
  if (half) {
    packed.pack(a.data(), c.m, c.k, mask.data(), format);
  } else {
    packed.pack(a.data(), c.m, c.k, mask.data());
  }
  check_against_effective(c, a_eff, b, c0, bias, epilogue, nullptr, &packed);
}

TEST(HalfGemmProperty, SeededRandomShapesAllPathsAgree) {
  Rng rng(20260808);
  constexpr EpiAct kActs[] = {EpiAct::kNone, EpiAct::kRelu,
                              EpiAct::kLeakyRelu, EpiAct::kSilu,
                              EpiAct::kSigmoid};
  for (int trial = 0; trial < 32; ++trial) {
    StorageCase c;
    c.m = draw_dim(rng);
    c.k = draw_dim(rng);
    c.n = draw_dim(rng);
    c.accumulate = rng.uniform() < 0.3;
    c.act = kActs[static_cast<std::size_t>(rng.uniform_int(0, 4))];
    c.with_bias = rng.uniform() < 0.7;
    c.keep = 1.0;
    const HalfFormat format =
        rng.uniform() < 0.5 ? HalfFormat::kFp16 : HalfFormat::kBf16;
    check_half_case(c, format, rng);
  }
}

TEST(HalfGemmProperty, GemvAndWideColumns) {
  // n == 1 is the row-parallel tail the format exists for; the wide
  // cases cross the 512-column cache block with a sub-8 tail.
  Rng rng(19);
  for (HalfFormat format : {HalfFormat::kFp16, HalfFormat::kBf16}) {
    check_half_case(StorageCase{37, 64, 1, false, EpiAct::kNone, true, 1.0},
                    format, rng);
    check_half_case(StorageCase{6, 128, 1, true, EpiAct::kNone, false, 1.0},
                    format, rng);
    check_half_case(
        StorageCase{1, 257, 1, false, EpiAct::kSigmoid, true, 1.0}, format,
        rng);
  }
  for (std::size_t n : kWideN) {
    check_half_case(
        StorageCase{13, 31, n, false, EpiAct::kLeakyRelu, true, 1.0},
        HalfFormat::kFp16, rng);
  }
}

TEST(SparseGemmProperty, SeededRandomShapesAllPathsAgree) {
  Rng rng(20260809);
  constexpr EpiAct kActs[] = {EpiAct::kNone, EpiAct::kRelu,
                              EpiAct::kLeakyRelu, EpiAct::kSilu,
                              EpiAct::kSigmoid};
  constexpr double kKeep[] = {0.0, 0.25, 0.5, 0.75, 1.0};
  for (int trial = 0; trial < 40; ++trial) {
    StorageCase c;
    c.m = draw_dim(rng);
    c.k = draw_dim(rng);
    c.n = draw_dim(rng);
    c.accumulate = rng.uniform() < 0.3;
    c.act = kActs[static_cast<std::size_t>(rng.uniform_int(0, 4))];
    c.with_bias = rng.uniform() < 0.7;
    c.keep = kKeep[static_cast<std::size_t>(rng.uniform_int(0, 4))];
    const bool half = rng.uniform() < 0.4;
    const HalfFormat format =
        rng.uniform() < 0.5 ? HalfFormat::kFp16 : HalfFormat::kBf16;
    check_sparse_case(c, half, format, rng);
  }
}

TEST(SparseGemmProperty, GemvTailAndWideColumns) {
  Rng rng(23);
  // Sub-8 column counts run the row-parallel sparse tail exclusively.
  for (std::size_t n : {1u, 2u, 5u, 7u}) {
    check_sparse_case(StorageCase{37, 64, n, false, EpiAct::kRelu, true, 0.5},
                      /*half=*/false, HalfFormat::kFp16, rng);
    check_sparse_case(StorageCase{13, 31, n, true, EpiAct::kNone, false, 0.5},
                      /*half=*/true, HalfFormat::kBf16, rng);
  }
  for (std::size_t n : kWideN) {
    check_sparse_case(
        StorageCase{13, 37, n, false, EpiAct::kSilu, true, 0.25},
        /*half=*/false, HalfFormat::kFp16, rng);
  }
  // Fully pruned: the kernel must still run the epilogue over zeros.
  check_sparse_case(StorageCase{6, 16, 8, false, EpiAct::kRelu, true, 0.0},
                    /*half=*/false, HalfFormat::kFp16, rng);
}

// --- quantized GEMM --------------------------------------------------------

struct QCase {
  std::size_t m, k, n;
  EpiAct act;
  bool with_bias;
  bool with_offset;
};

void check_qgemm_case(const QCase& c, Rng& rng) {
  SCOPED_TRACE(::testing::Message()
               << "m=" << c.m << " k=" << c.k << " n=" << c.n
               << " act=" << static_cast<int>(c.act) << " bias="
               << c.with_bias << " offset=" << c.with_offset);
  std::vector<std::int8_t> w(c.m * c.k);
  for (auto& v : w)
    v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  std::vector<std::uint8_t> act_u8(c.k * c.n);
  for (auto& v : act_u8)
    v = static_cast<std::uint8_t>(rng.uniform_int(0, 127));

  // Per-row scales normalising the i32 accumulator to O(1) outputs.
  std::vector<float> scale(c.m);
  for (float& s : scale)
    s = static_cast<float>(rng.uniform(0.5, 2.0)) /
        (static_cast<float>(c.k) * 64.0f);
  std::vector<float> bias(c.m);
  for (float& v : bias) v = static_cast<float>(rng.uniform(-0.5, 0.5));

  // Zero-point correction zp·Σw per row, as the engine computes it.
  const std::int32_t zp = c.with_offset
                              ? static_cast<std::int32_t>(rng.uniform_int(1, 15))
                              : 0;
  std::vector<std::int32_t> row_offset(c.m, 0);
  for (std::size_t i = 0; i < c.m; ++i) {
    std::int32_t sum = 0;
    for (std::size_t kk = 0; kk < c.k; ++kk) sum += w[i * c.k + kk];
    row_offset[i] = zp * sum;
  }

  QGemmEpilogue epilogue;
  epilogue.scale = scale.data();
  epilogue.row_offset = c.with_offset ? row_offset.data() : nullptr;
  epilogue.bias = c.with_bias ? bias.data() : nullptr;
  epilogue.act = c.act;

  // Oracle: exact i32 accumulation + scalar epilogue.
  std::vector<std::int32_t> acc(c.m * c.n);
  qgemm_naive_i32(w.data(), act_u8.data(), acc.data(), c.m, c.k, c.n);
  std::vector<float> want(c.m * c.n);
  for (std::size_t i = 0; i < c.m; ++i) {
    for (std::size_t j = 0; j < c.n; ++j) {
      float v = static_cast<float>(acc[i * c.n + j] -
                                   (c.with_offset ? row_offset[i] : 0)) *
                scale[i];
      if (c.with_bias) v += bias[i];
      want[i * c.n + j] = reference_act(c.act, v);
    }
  }

  PackedQuantA packed;
  packed.pack(w.data(), c.m, c.k);
  std::vector<std::uint8_t> quads(quad_buffer_bytes(c.k, c.n));
  pack_u8_quads(act_u8.data(), c.k, c.n, quads.data());

  for (GemmPath path : {GemmPath::kScalar, GemmPath::kSimd}) {
    QGemmConfig config;
    config.path = path;
    const char* label = path == GemmPath::kScalar ? "scalar" : "simd";
    std::vector<float> got(c.m * c.n, -1e9f);
    qgemm_packed(packed, quads.data(), got.data(), c.n, epilogue, config);
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_NEAR(got[i], want[i],
                  1e-3f * std::max(1.0f, std::abs(want[i])))
          << label << " at " << i;
    }

    // Requantized u8 output: integer accumulation is exact, so the only
    // slack is the float epilogue rounding at the u8 quantization edge.
    const float out_scale = 0.05f;
    const std::int32_t out_zp = 32;
    std::vector<std::uint8_t> got_u8(c.m * c.n, 255);
    qgemm_packed_u8(packed, quads.data(), got_u8.data(), c.n, out_scale,
                    out_zp, epilogue, config);
    for (std::size_t i = 0; i < got_u8.size(); ++i) {
      const float q = std::round(want[i] / out_scale) +
                      static_cast<float>(out_zp);
      const float expect = std::clamp(q, 0.0f, 127.0f);
      ASSERT_NEAR(static_cast<float>(got_u8[i]), expect, 1.0f)
          << label << " u8 at " << i;
    }
  }
}

TEST(QGemmProperty, SeededRandomShapesAllPathsAgree) {
  Rng rng(97);
  constexpr EpiAct kActs[] = {EpiAct::kNone, EpiAct::kRelu,
                              EpiAct::kLeakyRelu, EpiAct::kSilu,
                              EpiAct::kSigmoid};
  for (int trial = 0; trial < 40; ++trial) {
    QCase c;
    c.m = draw_dim(rng);
    c.k = draw_dim(rng);
    c.n = draw_dim(rng);
    c.act = kActs[static_cast<std::size_t>(rng.uniform_int(0, 4))];
    c.with_bias = rng.uniform() < 0.7;
    c.with_offset = rng.uniform() < 0.5;
    check_qgemm_case(c, rng);
  }
}

TEST(QGemmProperty, QuadPaddingAndWideColumns) {
  Rng rng(11);
  // K not divisible by the 4-byte quad (padding bytes must contribute
  // zero) and N past the column blocks.
  for (std::size_t k : {1u, 2u, 3u, 5u, 7u, 127u}) {
    check_qgemm_case(QCase{6, k, 33, EpiAct::kRelu, true, true}, rng);
  }
  check_qgemm_case(QCase{13, 37, 509, EpiAct::kSilu, true, false}, rng);
  check_qgemm_case(QCase{1, 1, 1, EpiAct::kNone, false, false}, rng);
}

// --- fused im2col-free conv (nn/ops.hpp conv2d_fused) ----------------------

// The fused path must match the materialized im2col lowering over the
// same packed panels for every geometry: the column matrix is the same
// values in the same k-order, only never held in memory at once. The
// remaining slack is GEMM summation order, same in kind as the dense
// property tests above.

struct FusedConvCase {
  int in_c, h, w, kh, kw, stride, pad, out_c, batch;
  nn::Act act;
  EpiMode mode;
};

void check_fused_conv_case(const FusedConvCase& c, Rng& rng) {
  SCOPED_TRACE(::testing::Message()
               << "c=" << c.in_c << " h=" << c.h << " w=" << c.w << " k="
               << c.kh << "x" << c.kw << " s=" << c.stride << " p=" << c.pad
               << " out_c=" << c.out_c << " batch=" << c.batch
               << " mode=" << static_cast<int>(c.mode));
  const ConvGeometry geom{c.in_c, c.h, c.w, c.kh, c.kw, c.stride, c.pad};
  const std::size_t in_n = static_cast<std::size_t>(c.in_c) * c.h * c.w;
  const std::size_t out_n =
      static_cast<std::size_t>(c.out_c) * geom.out_h() * geom.out_w();
  const std::size_t k = static_cast<std::size_t>(geom.col_rows());
  const std::size_t nb = static_cast<std::size_t>(c.batch);

  const auto input = random_matrix(nb, in_n, rng);
  const auto w = random_matrix(static_cast<std::size_t>(c.out_c), k, rng);
  std::vector<float> bias(static_cast<std::size_t>(c.out_c));
  for (float& v : bias) v = static_cast<float>(rng.uniform(-0.5, 0.5));
  const PackedA packed(w.data(), static_cast<std::size_t>(c.out_c), k);
  // Residual operand (initial C) for the accumulating epilogue modes.
  const auto c0 = random_matrix(nb, out_n, rng);

  // Oracle: the pointer-weight per-image conv (materialized im2col +
  // GEMM). For the residual modes, raw conv (no activation) combined
  // elementwise per the EpiMode definition in tensor/gemm.hpp.
  nn::ConvScratch ref_scratch;
  std::vector<float> want(nb * out_n);
  std::vector<float> raw(out_n);
  for (std::size_t b = 0; b < nb; ++b) {
    float* wb = want.data() + b * out_n;
    const float* ib = input.data() + b * in_n;
    if (c.mode == EpiMode::kStore) {
      nn::conv2d(ib, geom, c.out_c, w.data(), bias.data(), c.act, wb,
                 ref_scratch);
    } else {
      nn::conv2d(ib, geom, c.out_c, w.data(), bias.data(), nn::Act::kNone,
                 raw.data(), ref_scratch);
      const auto act1 = [&](float v) {
        nn::apply_activation(c.act, &v, 1);
        return v;
      };
      for (std::size_t i = 0; i < out_n; ++i) {
        const float x = c0[b * out_n + i];
        wb[i] = c.mode == EpiMode::kAccThenAct ? act1(x + raw[i])
                                               : x + act1(raw[i]);
      }
    }
  }

  nn::ConvScratch scratch;
  std::vector<float> got = c0;
  if (c.mode == EpiMode::kStore)
    std::fill(got.begin(), got.end(), -7.0f);  // must be fully overwritten
  nn::conv2d_fused(input.data(), in_n, c.batch, geom, packed, bias.data(),
                   c.act, got.data(), out_n, scratch, c.mode);

  const float tol =
      1e-4f * std::max<float>(1.0f, static_cast<float>(k) * 0.05f);
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_NEAR(got[i], want[i], tol) << "at " << i;
}

TEST(FusedConvProperty, StridedAndRaggedGeometries) {
  Rng rng(20260809);
  // Stride 2 with pads that leave ragged borders (even input + odd
  // kernel), prime channel counts dodging every tile width.
  for (int pad : {0, 1, 2}) {
    check_fused_conv_case(
        FusedConvCase{7, 14, 14, 3, 3, 2, pad, 13, 1, nn::Act::kLeakyRelu,
                      EpiMode::kStore},
        rng);
  }
  check_fused_conv_case(FusedConvCase{3, 9, 7, 5, 5, 2, 2, 11, 1,
                                      nn::Act::kSilu, EpiMode::kStore},
                        rng);
  check_fused_conv_case(FusedConvCase{1, 5, 5, 3, 3, 2, 1, 1, 1,
                                      nn::Act::kNone, EpiMode::kStore},
                        rng);
}

TEST(FusedConvProperty, AsymmetricKernels) {
  // 1×N / N×1 kernels: the stripe packer's patch rows cover a single
  // spatial axis; the other collapses to the degenerate case.
  Rng rng(31);
  check_fused_conv_case(FusedConvCase{5, 11, 11, 1, 5, 1, 2, 7, 1,
                                      nn::Act::kRelu, EpiMode::kStore},
                        rng);
  check_fused_conv_case(FusedConvCase{5, 11, 11, 5, 1, 1, 2, 7, 1,
                                      nn::Act::kRelu, EpiMode::kStore},
                        rng);
  check_fused_conv_case(FusedConvCase{2, 8, 16, 1, 7, 2, 3, 3, 1,
                                      nn::Act::kSigmoid, EpiMode::kStore},
                        rng);
}

TEST(FusedConvProperty, BatchedImagesMatchPerImage) {
  Rng rng(47);
  for (int batch : {2, 3}) {
    check_fused_conv_case(FusedConvCase{7, 10, 10, 3, 3, 1, 1, 13, batch,
                                        nn::Act::kSilu, EpiMode::kStore},
                          rng);
    check_fused_conv_case(FusedConvCase{4, 12, 12, 3, 3, 2, 1, 5, batch,
                                        nn::Act::kLeakyRelu, EpiMode::kStore},
                          rng);
  }
}

TEST(FusedConvProperty, ResidualEpilogueModes) {
  Rng rng(53);
  for (EpiMode mode : {EpiMode::kAccThenAct, EpiMode::kActThenAcc}) {
    check_fused_conv_case(
        FusedConvCase{7, 10, 10, 3, 3, 1, 1, 13, 1, nn::Act::kSilu, mode},
        rng);
    check_fused_conv_case(
        FusedConvCase{8, 16, 16, 3, 3, 1, 1, 8, 2, nn::Act::kRelu, mode},
        rng);
  }
}

TEST(FusedConvProperty, WideOutputsCrossStripeBlocks) {
  // Output extents past the stripe width so multiple panels cycle, and
  // a prime spatial size leaving a short tail stripe.
  Rng rng(59);
  check_fused_conv_case(FusedConvCase{3, 30, 30, 3, 3, 1, 1, 5, 1,
                                      nn::Act::kLeakyRelu, EpiMode::kStore},
                        rng);
  check_fused_conv_case(FusedConvCase{2, 23, 23, 3, 3, 1, 0, 3, 1,
                                      nn::Act::kNone, EpiMode::kStore},
                        rng);
}

// --- batch-spanning im2col stripes (gemm_packed_im2col) -------------------

// The stripe driver walks the columns of a whole batch, so a stripe
// may cover the tail of one image and the head of the next (every
// stripe does once the maps are smaller than a stripe). Each storage
// format is checked against gemm_naive over a per-image im2col(), with
// the exact weights the format computes with, under every EpiMode the
// format supports. Outputs sit `out_stride` floats apart with a gap,
// and the gaps and the floats after the last image hold canaries the
// driver must never write.

enum class StripeStorage { kDense, kHalf, kSparse, kSparseHalf };

struct StripeCase {
  int in_c, h, w, kernel, out_c, batch;
  StripeStorage storage;
  EpiMode mode;
  EpiAct act;
};

void check_stripe_case(const StripeCase& c, GemmPath path, Rng& rng) {
  const ConvGeometry geom{c.in_c, c.h, c.w, c.kernel, c.kernel, 1,
                          c.kernel / 2};
  const std::size_t k = geom.col_rows();
  const std::size_t n_img = geom.col_cols();
  const std::size_t m = static_cast<std::size_t>(c.out_c);
  const std::size_t nb = static_cast<std::size_t>(c.batch);
  SCOPED_TRACE(::testing::Message()
               << "k=" << k << " (stripe " << fused_panel_cols(k)
               << ") pixels=" << n_img << " m=" << m << " batch=" << nb
               << " storage=" << static_cast<int>(c.storage)
               << " mode=" << static_cast<int>(c.mode)
               << " act=" << static_cast<int>(c.act)
               << " path=" << static_cast<int>(path));

  const std::size_t in_n = static_cast<std::size_t>(c.in_c) * c.h * c.w;
  const std::size_t in_stride = in_n + 3;  // images need not be packed
  const auto input = random_matrix(nb, in_stride, rng);
  const auto w = random_matrix(m, k, rng);
  std::vector<float> bias(m);
  for (float& v : bias) v = static_cast<float>(rng.uniform(-0.5, 0.5));
  const std::size_t out_n = m * n_img;
  const std::size_t out_stride = out_n + 5;
  const auto c0 = random_matrix(nb, out_n, rng);

  // Pack, and recover the exact weights the format multiplies with.
  PackedA dense;
  PackedHalfA half;
  PackedSparseA sparse;
  std::vector<float> w_eff(m * k);
  std::vector<std::uint8_t> mask(m * k);
  for (auto& v : mask) v = rng.bernoulli(0.6) ? 1 : 0;
  switch (c.storage) {
    case StripeStorage::kDense:
      dense.pack(w.data(), m, k);
      w_eff = w;
      break;
    case StripeStorage::kHalf:
      half.pack(w.data(), m, k, HalfFormat::kFp16);
      half.unpack_dense(w_eff.data());
      break;
    case StripeStorage::kSparse:
      sparse.pack(w.data(), m, k, mask.data());
      sparse.unpack_masked_dense(w_eff.data());
      break;
    case StripeStorage::kSparseHalf:
      sparse.pack(w.data(), m, k, mask.data(), HalfFormat::kBf16);
      sparse.unpack_masked_dense(w_eff.data());
      break;
  }

  std::vector<float> want(nb * out_n);
  std::vector<float> col(k * n_img), acc(out_n);
  for (std::size_t b = 0; b < nb; ++b) {
    im2col(input.data() + b * in_stride, geom, col.data());
    std::fill(acc.begin(), acc.end(), 0.0f);
    gemm_naive(w_eff.data(), col.data(), acc.data(), m, k, n_img);
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < n_img; ++j) {
        const float v = acc[i * n_img + j] + bias[i];
        const float prior = c0[b * out_n + i * n_img + j];
        float& o = want[b * out_n + i * n_img + j];
        switch (c.mode) {
          case EpiMode::kStore: o = reference_act(c.act, v); break;
          case EpiMode::kAccThenAct: o = reference_act(c.act, prior + v); break;
          case EpiMode::kActThenAcc: o = prior + reference_act(c.act, v); break;
        }
      }
  }

  std::vector<float> out(nb * out_stride + 8, kCanary);
  if (c.mode != EpiMode::kStore)
    for (std::size_t b = 0; b < nb; ++b)
      std::copy_n(c0.data() + b * out_n, out_n, out.data() + b * out_stride);
  std::vector<float> scratch(fused_conv_scratch_floats(geom, m, c.batch));
  const Im2colPanelPacker packer(input.data(), geom, c.batch, in_stride);
  const GemmEpilogue epi{bias.data(), c.act, c.mode};
  GemmConfig config;
  config.path = path;
  switch (c.storage) {
    case StripeStorage::kDense:
      gemm_packed_im2col(dense, packer, out.data(), out_stride,
                         scratch.data(), epi, config);
      break;
    case StripeStorage::kHalf:
      gemm_packed_im2col(half, packer, out.data(), out_stride,
                         scratch.data(), epi, config);
      break;
    case StripeStorage::kSparse:
    case StripeStorage::kSparseHalf:
      gemm_packed_im2col(sparse, packer, out.data(), out_stride,
                         scratch.data(), epi, config);
      break;
  }

  const float tol =
      1e-4f * std::max<float>(1.0f, static_cast<float>(k) * 0.05f);
  for (std::size_t b = 0; b < nb; ++b) {
    for (std::size_t i = 0; i < out_n; ++i)
      ASSERT_NEAR(out[b * out_stride + i], want[b * out_n + i], tol)
          << "image " << b << " at " << i;
    for (std::size_t t = out_n; t < out_stride; ++t)
      ASSERT_EQ(out[b * out_stride + t], kCanary)
          << "canary after image " << b << " at " << t;
  }
  for (std::size_t t = nb * out_stride; t < out.size(); ++t)
    ASSERT_EQ(out[t], kCanary) << "canary past the last image at " << t;
}

/// Output sides whose pixel counts are 1, 4, 25, 100 and 1200.
constexpr int kStripeSides[][2] = {{1, 1}, {2, 2}, {5, 5}, {10, 10},
                                   {30, 40}};

TEST(StripeProperty, BatchSpanningStripesMatchPerImageIm2col) {
  Rng rng(20261019);
  // K = 378 keeps the 1024-column stripe; K = 387 drops it to 1008, so
  // the 1200-pixel maps split at a different column.
  for (int in_c : {42, 43})
    for (const auto& side : kStripeSides)
      for (int batch : {1, 3, 4})
        for (StripeStorage st :
             {StripeStorage::kDense, StripeStorage::kHalf,
              StripeStorage::kSparse, StripeStorage::kSparseHalf})
          check_stripe_case({in_c, side[0], side[1], 3, 7, batch, st,
                             EpiMode::kStore, EpiAct::kSilu},
                            GemmPath::kSimd, rng);
}

TEST(StripeProperty, EveryEpilogueModeOnDensePanels) {
  Rng rng(20261020);
  constexpr EpiAct kActs[] = {EpiAct::kNone, EpiAct::kRelu,
                              EpiAct::kLeakyRelu, EpiAct::kSilu,
                              EpiAct::kSigmoid};
  for (EpiMode mode :
       {EpiMode::kStore, EpiMode::kAccThenAct, EpiMode::kActThenAcc})
    for (EpiAct act : kActs)
      for (const auto& side : kStripeSides)
        for (int batch : {1, 3, 4})
          for (GemmPath path : {GemmPath::kScalar, GemmPath::kSimd})
            check_stripe_case({3, side[0], side[1], 3, 13, batch,
                               StripeStorage::kDense, mode, act},
                              path, rng);
}

TEST(StripeProperty, ScalarPathAndAlignedStripes) {
  Rng rng(20261021);
  for (const auto& side : kStripeSides)
    for (int batch : {1, 4})
      for (StripeStorage st :
           {StripeStorage::kDense, StripeStorage::kHalf,
            StripeStorage::kSparse})
        check_stripe_case({43, side[0], side[1], 3, 5, batch, st,
                           EpiMode::kStore, EpiAct::kRelu},
                          GemmPath::kScalar, rng);
  // K = 983 gives a 400-column stripe that divides the 1200-pixel map:
  // a batch that never spans images, so no staging tile.
  ASSERT_EQ(1200 % fused_panel_cols(983), 0u);
  for (int batch : {1, 3})
    check_stripe_case({983, 30, 40, 1, 6, batch, StripeStorage::kDense,
                       EpiMode::kAccThenAct, EpiAct::kRelu},
                      GemmPath::kSimd, rng);
}

// --- quantized conv (nn/quantize.hpp qconv2d) -----------------------------

// The INT8 stripes against an integer conv computed without any of the
// production lowering: a test-local u8 im2col (padding with the input
// zero-point) feeds qgemm_naive_i32 over the exact int8 weights, and
// the requantize epilogue is applied per its definition in qgemm.hpp.
// Weights are integer multiples of a power-of-two row scale with a
// ±127 entry per row, so quantize_layer reproduces them exactly.

/// Row-major [col_rows × col_cols] u8 lowering of one CHW image.
std::vector<std::uint8_t> lower_u8(const std::uint8_t* image,
                                   const ConvGeometry& g, std::uint8_t pad) {
  const int oh = g.out_h(), ow = g.out_w();
  const std::size_t cols = g.col_cols();
  std::vector<std::uint8_t> col(g.col_rows() * cols);
  std::size_t row = 0;
  for (int c = 0; c < g.in_c; ++c)
    for (int ky = 0; ky < g.kernel_h; ++ky)
      for (int kx = 0; kx < g.kernel_w; ++kx, ++row)
        for (int y = 0; y < oh; ++y)
          for (int x = 0; x < ow; ++x) {
            const int sy = y * g.stride - g.pad + ky;
            const int sx = x * g.stride - g.pad + kx;
            const bool in = sy >= 0 && sy < g.in_h && sx >= 0 && sx < g.in_w;
            col[row * cols + static_cast<std::size_t>(y) * ow + x] =
                in ? image[(static_cast<std::size_t>(c) * g.in_h + sy) *
                               g.in_w + sx]
                   : pad;
          }
  return col;
}

void check_qconv_case(const ConvGeometry& geom, int out_c, EpiAct act,
                      bool emit_u8, Rng& rng) {
  SCOPED_TRACE(::testing::Message()
               << "c=" << geom.in_c << " h=" << geom.in_h << " w="
               << geom.in_w << " k=" << geom.kernel_h << "x" << geom.kernel_w
               << " s=" << geom.stride << " p=" << geom.pad << " out_c="
               << out_c << " act=" << static_cast<int>(act)
               << " u8=" << emit_u8);
  const std::size_t in_n =
      static_cast<std::size_t>(geom.in_c) * geom.in_h * geom.in_w;
  const std::size_t m = static_cast<std::size_t>(out_c);
  const std::size_t n = geom.col_cols();
  const std::size_t k = geom.col_rows();

  std::vector<std::int8_t> wq(m * k);
  std::vector<float> w(m * k);
  for (std::size_t r = 0; r < m; ++r) {
    const float scale = std::ldexp(1.0f, -static_cast<int>(r % 5) - 6);
    for (std::size_t j = 0; j < k; ++j) {
      const auto q = static_cast<std::int8_t>(
          j == r % k ? (r % 2 == 0 ? 127 : -127) : rng.uniform_int(-127, 127));
      wq[r * k + j] = q;
      w[r * k + j] = static_cast<float>(q) * scale;
    }
  }
  std::vector<float> bias(m);
  for (float& v : bias) v = static_cast<float>(rng.uniform(-0.5, 0.5));

  const auto x = random_matrix(1, in_n, rng);
  nn::TensorRange xr;
  xr.observe(x.data(), x.size());
  const nn::TensorQuant xq = nn::quant_from_range(xr.mn, xr.mx);
  std::vector<std::uint8_t> xu(x.size());
  nn::quantize_to_u8(x.data(), x.size(), xq, xu.data());
  const nn::TensorQuant oq = nn::quant_from_range(-4.0f, 4.0f);
  nn::QuantizedLayer layer = nn::quantize_layer(w.data(), m, k, xq, oq, act);
  layer.emit_u8 = emit_u8;

  const std::vector<std::uint8_t> col =
      lower_u8(xu.data(), geom, static_cast<std::uint8_t>(xq.zero_point));
  std::vector<std::int32_t> acc(m * n);
  qgemm_naive_i32(wq.data(), col.data(), acc.data(), m, k, n);
  std::vector<float> want(m * n);
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t j = 0; j < n; ++j) {
      const std::int32_t a = acc[r * n + j] - layer.row_offset[r];
      want[r * n + j] = apply_epi_act(
          act, static_cast<float>(a) * layer.row_scale[r] + bias[r]);
    }

  nn::ConvScratch scratch;
  if (emit_u8) {
    std::vector<std::uint8_t> got(m * n, 0xAA);
    nn::qconv2d(xu.data(), geom, layer, bias.data(), nullptr, got.data(),
                scratch);
    for (std::size_t i = 0; i < got.size(); ++i) {
      const long q = std::lrintf(want[i] / oq.scale) + oq.zero_point;
      // A 1-ULP activation difference may flip a rounding tie.
      ASSERT_LE(std::abs(static_cast<long>(got[i]) - std::clamp(q, 0l, 127l)),
                1)
          << "u8 at " << i;
    }
  } else {
    std::vector<float> got(m * n, -1.0f);
    nn::qconv2d(xu.data(), geom, layer, bias.data(), got.data(), nullptr,
                scratch);
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_NEAR(got[i], want[i], 1e-5f * std::max(1.0f, std::abs(want[i])))
          << "f32 at " << i;
  }
}

TEST(QConvProperty, StripesMatchNaiveIntegerConv) {
  Rng rng(20260808);
  for (bool emit_u8 : {false, true}) {
    check_qconv_case(ConvGeometry{7, 12, 12, 3, 3, 1, 1}, 13, EpiAct::kRelu,
                     emit_u8, rng);
    check_qconv_case(ConvGeometry{3, 14, 14, 3, 3, 2, 1}, 5, EpiAct::kSilu,
                     emit_u8, rng);
    check_qconv_case(ConvGeometry{5, 9, 9, 1, 5, 1, 2}, 7, EpiAct::kNone,
                     emit_u8, rng);
    check_qconv_case(ConvGeometry{1, 6, 6, 5, 1, 2, 2}, 3,
                     EpiAct::kLeakyRelu, emit_u8, rng);
    // Wide enough for several quad stripes.
    check_qconv_case(ConvGeometry{2, 40, 40, 3, 3, 1, 1}, 4, EpiAct::kRelu,
                     emit_u8, rng);
  }
}

}  // namespace
}  // namespace ocb
