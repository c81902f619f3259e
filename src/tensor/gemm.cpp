#include "tensor/gemm.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/crc32.hpp"
#include "core/error.hpp"
#include "parallel/parallel_for.hpp"
#include "tensor/fault_hook.hpp"
#include "tensor/gemm_kernels.hpp"
#include "tensor/simd.hpp"

namespace ocb {

void gemm_naive(const float* a, const float* b, float* c, std::size_t m,
                std::size_t k, std::size_t n, bool accumulate) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = accumulate ? c[i * n + j] : 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += a[i * k + p] * b[p * n + j];
      c[i * n + j] = acc;
    }
  }
}

// ---------------------------------------------------------------------------
// Fast activations (scalar reference; gemm_avx2.cpp vectorises the same
// algorithm). exp(x) = 2^i · e^u with t = x/ln2, i = round(t),
// u = (t−i)·ln2 ∈ [−ln2/2, ln2/2]; e^u by a degree-6 Taylor polynomial
// whose truncation error ≤ (ln2/2)^7/7! ≈ 1.2e-7 relative — about
// 1 float ULP, ≤ 2 ULP end-to-end with rounding. Inputs are clamped to
// ±87 — not the float-overflow limit 88, because 1/(1+e^88) in the
// sigmoid/SiLU users is denormal and every later op touching the value
// pays a microcode assist (see exp256 in simd_math.hpp). The users
// never notice the clamp: sigmoid saturates to 0/1 in float by
// |x| ≈ 17.
// ---------------------------------------------------------------------------

float fast_exp(float x) noexcept {
  x = std::min(87.0f, std::max(-87.0f, x));
  const float t = x * 1.4426950408889634f;  // x / ln 2
  const float fi = std::floor(t + 0.5f);
  // Cody–Waite reduction: ln2 split so fi·ln2_hi is exact for |fi| ≤ 2^7
  // (ln2_hi carries 10 significand bits). A single-constant (t−fi)·ln2
  // would leak |x|·ε ≈ 1e-5 of reduction error at the clamp boundary.
  const float u = (x - fi * 0.693359375f) + fi * 2.12194440e-4f;
  float p = 1.0f / 720.0f;
  p = p * u + 1.0f / 120.0f;
  p = p * u + 1.0f / 24.0f;
  p = p * u + 1.0f / 6.0f;
  p = p * u + 0.5f;
  p = p * u + 1.0f;
  p = p * u + 1.0f;
  std::int32_t bits = (static_cast<std::int32_t>(fi) + 127) << 23;
  float scale;
  std::memcpy(&scale, &bits, sizeof(scale));
  return p * scale;
}

float fast_sigmoid(float x) noexcept { return 1.0f / (1.0f + fast_exp(-x)); }

float fast_silu(float x) noexcept { return x / (1.0f + fast_exp(-x)); }

namespace detail {

void epilogue_row_scalar(float* row, std::size_t n, float bias, EpiAct act) {
  switch (act) {
    case EpiAct::kNone:
      if (bias != 0.0f)
        for (std::size_t j = 0; j < n; ++j) row[j] += bias;
      return;
    case EpiAct::kRelu:
      for (std::size_t j = 0; j < n; ++j) {
        const float v = row[j] + bias;
        row[j] = v < 0.0f ? 0.0f : v;
      }
      return;
    case EpiAct::kLeakyRelu:
      for (std::size_t j = 0; j < n; ++j) {
        const float v = row[j] + bias;
        row[j] = v < 0.0f ? kLeakySlope * v : v;
      }
      return;
    case EpiAct::kSilu:
      for (std::size_t j = 0; j < n; ++j) {
        const float v = row[j] + bias;
        row[j] = v / (1.0f + fast_exp(-v));
      }
      return;
    case EpiAct::kSigmoid:
      for (std::size_t j = 0; j < n; ++j)
        row[j] = 1.0f / (1.0f + fast_exp(-(row[j] + bias)));
      return;
  }
}

}  // namespace detail

// ---------------------------------------------------------------------------
// PackedA
// ---------------------------------------------------------------------------

void PackedA::pack(const float* a, std::size_t m, std::size_t k) {
  m_ = m;
  k_ = k;
  const std::size_t panels = panel_count();
  data_.resize(panels * kRowTile * k);
  for (std::size_t p = 0; p < panels; ++p) {
    const std::size_t i0 = p * kRowTile;
    const std::size_t mr = std::min(kRowTile, m - i0);
    float* dst = data_.data() + p * kRowTile * k;
    for (std::size_t kk = 0; kk < k; ++kk) {
      for (std::size_t r = 0; r < mr; ++r)
        dst[kk * kRowTile + r] = a[(i0 + r) * k + kk];
      for (std::size_t r = mr; r < kRowTile; ++r)
        dst[kk * kRowTile + r] = 0.0f;
    }
  }
}

std::uint32_t PackedA::checksum() const noexcept {
  return crc32(data_.data(), data_.size() * sizeof(float));
}

// ---------------------------------------------------------------------------
// Scalar kernels
// ---------------------------------------------------------------------------

namespace {

// Inner kernel: C[mb×nb] += A[mb×kb] · B[kb×nb] with the k-loop hoisted
// outside the j-loop so B rows stream sequentially (unit stride) and the
// compiler can vectorise the j-loop. No zero-skipping: latency must not
// depend on the weight values.
void micro_kernel(const float* a, const float* b, float* c, std::size_t mb,
                  std::size_t kb, std::size_t nb, std::size_t lda,
                  std::size_t ldb, std::size_t ldc) {
  for (std::size_t i = 0; i < mb; ++i) {
    float* crow = c + i * ldc;
    for (std::size_t p = 0; p < kb; ++p) {
      const float aval = a[i * lda + p];
      const float* brow = b + p * ldb;
      for (std::size_t j = 0; j < nb; ++j) crow[j] += aval * brow[j];
    }
  }
}

void gemm_scalar_blocked(const float* a, const float* b, float* c,
                         std::size_t m, std::size_t k, std::size_t n,
                         bool accumulate, const GemmConfig& config) {
  if (!accumulate) std::memset(c, 0, m * n * sizeof(float));
  if (k == 0) return;

  const std::size_t bm = std::max<std::size_t>(1, config.block_m);
  const std::size_t bn = std::max<std::size_t>(1, config.block_n);
  const std::size_t bk = std::max<std::size_t>(1, config.block_k);

  auto row_panel = [&](std::size_t panel) {
    const std::size_t i0 = panel * bm;
    const std::size_t mb = std::min(bm, m - i0);
    for (std::size_t p0 = 0; p0 < k; p0 += bk) {
      const std::size_t kb = std::min(bk, k - p0);
      for (std::size_t j0 = 0; j0 < n; j0 += bn) {
        const std::size_t nb = std::min(bn, n - j0);
        micro_kernel(a + i0 * k + p0, b + p0 * n + j0, c + i0 * n + j0, mb,
                     kb, nb, k, n, n);
      }
    }
  };

  const std::size_t panels = (m + bm - 1) / bm;
  if (config.parallel && panels > 1) {
    parallel_for(0, panels, row_panel, /*grain=*/1);
  } else {
    for (std::size_t panel = 0; panel < panels; ++panel) row_panel(panel);
  }
}

}  // namespace

namespace detail {
namespace {

/// One packed row panel against a B window: B has row stride ldb and C
/// row stride ldc (ldb == ldc == n for the classic full-matrix call).
/// Handles raw accumulate plus every EpiMode; the k-stream order is
/// identical across modes so results stay bit-stable.
void packed_panel_scalar(const PackedA& a, std::size_t p, const float* b,
                         std::size_t ldb, float* c, std::size_t ldc,
                         std::size_t n, bool accumulate,
                         const GemmEpilogue& epi) {
  constexpr std::size_t MR = PackedA::kRowTile;
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const float* ap = a.panel(p);
  const std::size_t i0 = p * MR;
  const std::size_t mr = std::min(MR, m - i0);

  if (epi.mode == EpiMode::kActThenAcc) {
    // C += act(acc + bias): the raw accumulator must stay separate from
    // C, so run column chunks through a stack tile (no heap).
    constexpr std::size_t JB = 64;
    float tmp[MR * JB];
    for (std::size_t j0 = 0; j0 < n; j0 += JB) {
      const std::size_t jb = std::min(JB, n - j0);
      std::fill_n(tmp, mr * JB, 0.0f);
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float* brow = b + kk * ldb + j0;
        for (std::size_t r = 0; r < mr; ++r) {
          const float aval = ap[kk * MR + r];
          float* trow = tmp + r * JB;
          for (std::size_t j = 0; j < jb; ++j) trow[j] += aval * brow[j];
        }
      }
      for (std::size_t r = 0; r < mr; ++r) {
        const float bias = epi.bias != nullptr ? epi.bias[i0 + r] : 0.0f;
        float* crow = c + (i0 + r) * ldc + j0;
        const float* trow = tmp + r * JB;
        for (std::size_t j = 0; j < jb; ++j)
          crow[j] += apply_epi_act(epi.act, trow[j] + bias);
      }
    }
    return;
  }

  // kStore clears C first; kAccThenAct and raw accumulate stream onto
  // the existing contents.
  if (!accumulate && epi.mode == EpiMode::kStore) {
    for (std::size_t r = 0; r < mr; ++r)
      std::memset(c + (i0 + r) * ldc, 0, n * sizeof(float));
  }
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* brow = b + kk * ldb;
    for (std::size_t r = 0; r < mr; ++r) {
      const float aval = ap[kk * MR + r];
      float* crow = c + (i0 + r) * ldc;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
    }
  }
  if (!accumulate &&
      (epi.bias != nullptr || epi.act != EpiAct::kNone)) {
    for (std::size_t r = 0; r < mr; ++r)
      epilogue_row_scalar(c + (i0 + r) * ldc, n,
                          epi.bias != nullptr ? epi.bias[i0 + r] : 0.0f,
                          epi.act);
  }
}

}  // namespace

void gemm_packed_scalar(const PackedA& a, const float* b, std::size_t ldb,
                        float* c, std::size_t ldc, std::size_t n,
                        bool accumulate, const GemmEpilogue& epilogue,
                        bool parallel) {
  auto panel_job = [&](std::size_t p) {
    packed_panel_scalar(a, p, b, ldb, c, ldc, n, accumulate, epilogue);
  };
  const std::size_t panels = a.panel_count();
  if (parallel && panels > 1) {
    parallel_for(0, panels, panel_job, /*grain=*/1);
  } else {
    for (std::size_t p = 0; p < panels; ++p) panel_job(p);
  }
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

namespace detail {

bool use_simd(const GemmConfig& config) noexcept {
  switch (config.path) {
    case GemmPath::kScalar: return false;
    case GemmPath::kSimd:
    case GemmPath::kAuto: return simd::active() == simd::Level::kAvx2;
  }
  return false;
}

}  // namespace detail

namespace {

// Per-thread packing buffer so repeated gemm() calls (im2col conv in a
// streaming worker, autograd) do not reallocate per invocation.
PackedA& thread_pack_buffer() {
  thread_local PackedA pack;
  return pack;
}

}  // namespace

namespace detail {

// Per-thread record of the level the last dispatch actually executed;
// both the FP32 (here) and INT8 (qgemm.cpp) dispatchers write it.
thread_local simd::Level g_last_level = simd::Level::kScalar;

void record_dispatch_level(simd::Level level) noexcept {
  g_last_level = level;
}

}  // namespace detail

simd::Level gemm_last_level() noexcept { return detail::g_last_level; }

void gemm_ex(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n, bool accumulate,
             const GemmEpilogue& epilogue, const GemmConfig& config) {
  if (m == 0 || n == 0) return;
  OCB_CHECK_MSG(!(epilogue.active() && accumulate),
                "fused epilogue requires accumulate == false");
  if (k == 0) {
    OCB_CHECK_MSG(epilogue.mode == EpiMode::kStore,
                  "k == 0 with a residual epilogue mode is unsupported");
    if (!accumulate) std::memset(c, 0, m * n * sizeof(float));
    if (epilogue.active())
      for (std::size_t i = 0; i < m; ++i)
        detail::epilogue_row_scalar(
            c + i * n, n, epilogue.bias != nullptr ? epilogue.bias[i] : 0.0f,
            epilogue.act);
    return;
  }

  if (detail::use_simd(config)) {
    detail::record_dispatch_level(simd::Level::kAvx2);
    PackedA& pack = thread_pack_buffer();
    pack.pack(a, m, k);
    detail::gemm_packed_avx2(pack, b, n, c, n, n, accumulate, epilogue,
                             config.parallel);
    return;
  }

  detail::record_dispatch_level(simd::Level::kScalar);
  if (epilogue.mode != EpiMode::kStore) {
    // The blocked kernel would overwrite the residual already sitting in
    // C; the packed kernel handles both accumulating modes in-place.
    PackedA& pack = thread_pack_buffer();
    pack.pack(a, m, k);
    detail::gemm_packed_scalar(pack, b, n, c, n, n, /*accumulate=*/false,
                               epilogue, config.parallel);
    return;
  }
  gemm_scalar_blocked(a, b, c, m, k, n, accumulate, config);
  if (epilogue.active()) {
    auto row_epilogue = [&](std::size_t i) {
      detail::epilogue_row_scalar(
          c + i * n, n, epilogue.bias != nullptr ? epilogue.bias[i] : 0.0f,
          epilogue.act);
    };
    if (config.parallel && m > 1) {
      parallel_for(0, m, row_epilogue, /*grain=*/8);
    } else {
      for (std::size_t i = 0; i < m; ++i) row_epilogue(i);
    }
  }
}

void gemm(const float* a, const float* b, float* c, std::size_t m,
          std::size_t k, std::size_t n, bool accumulate,
          const GemmConfig& config) {
  gemm_ex(a, b, c, m, k, n, accumulate, GemmEpilogue{}, config);
}

void gemm_packed(const PackedA& a, const float* b, float* c, std::size_t n,
                 bool accumulate, const GemmEpilogue& epilogue,
                 const GemmConfig& config) {
  const std::size_t m = a.rows();
  if (m == 0 || n == 0) return;
  OCB_CHECK_MSG(!(epilogue.active() && accumulate),
                "fused epilogue requires accumulate == false");
  if (a.cols() == 0) {
    OCB_CHECK_MSG(epilogue.mode == EpiMode::kStore,
                  "k == 0 with a residual epilogue mode is unsupported");
    if (!accumulate) std::memset(c, 0, m * n * sizeof(float));
    if (epilogue.active())
      for (std::size_t i = 0; i < m; ++i)
        detail::epilogue_row_scalar(
            c + i * n, n, epilogue.bias != nullptr ? epilogue.bias[i] : 0.0f,
            epilogue.act);
    return;
  }
  detail::pick_kernel(detail::use_simd(config), detail::gemm_packed_avx2,
                      detail::gemm_packed_scalar)(
      a, b, n, c, n, n, accumulate, epilogue, config.parallel);
#if defined(OCB_FAULT_HOOKS)
  fault_hook::detail::maybe_corrupt_lanes(c, m, n, n);
#endif
}

// ---------------------------------------------------------------------------
// Im2col-free conv GEMM (the stripe driver lives in gemm_kernels.hpp)
// ---------------------------------------------------------------------------

std::size_t fused_panel_cols(std::size_t k) noexcept {
  // One K×width stripe should stay L2-resident next to the C window and
  // the streaming weight panels. Narrow stripes are the enemy: every
  // stripe re-walks the full packed-A panel set, so the width should be
  // as wide as the cache allows — 1.5 MiB leaves headroom on the 2 MiB
  // L2 of the server parts this path is tuned on, and the width cap
  // keeps one stripe a small multiple of the kernel's 512-column block.
  constexpr std::size_t kPanelBudgetBytes = 3 * 512 * 1024;
  std::size_t w =
      kPanelBudgetBytes / (std::max<std::size_t>(1, k) * sizeof(float));
  w = std::min<std::size_t>(1024, w) & ~std::size_t{15};
  return std::max<std::size_t>(16, w);
}

std::size_t fused_panel_buffers(std::size_t stripes) noexcept {
  const std::size_t executors = ThreadPool::global().executors();
  return std::max<std::size_t>(
      1, std::min({stripes, executors, std::size_t{16}}));
}

namespace detail {

std::size_t stripe_slot_floats(std::size_t k, std::size_t m,
                               std::size_t image_cols, int batch) noexcept {
  const std::size_t w = fused_panel_cols(k);
  const bool spans = batch > 1 && image_cols % w != 0;
  return (k + (spans ? m : 0)) * w;
}

}  // namespace detail

std::size_t fused_conv_scratch_floats(const ConvGeometry& geom,
                                      std::size_t rows, int batch) noexcept {
  const std::size_t k = geom.col_rows();
  const std::size_t n = geom.col_cols() * static_cast<std::size_t>(batch);
  const std::size_t w = fused_panel_cols(k);
  return fused_panel_buffers((n + w - 1) / w) *
         detail::stripe_slot_floats(k, rows, geom.col_cols(), batch);
}

void gemm_packed_im2col(const PackedA& a, const Im2colPanelPacker& packer,
                        float* c, std::size_t out_stride, float* scratch,
                        const GemmEpilogue& epilogue,
                        const GemmConfig& config) {
  detail::im2col_stripes(
      a,
      detail::pick_kernel(detail::use_simd(config), detail::gemm_packed_avx2,
                          detail::gemm_packed_scalar),
      packer, c, out_stride, scratch, epilogue, config.parallel);
}

}  // namespace ocb
