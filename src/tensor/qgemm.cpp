#include "tensor/qgemm.hpp"

#include <algorithm>
#include <cstring>

#include "core/error.hpp"
#include "parallel/parallel_for.hpp"
#include "tensor/gemm_kernels.hpp"
#include "tensor/qgemm_kernels.hpp"
#include "tensor/simd.hpp"

namespace ocb {

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

void PackedQuantA::pack(const std::int8_t* a, std::size_t m, std::size_t k) {
  m_ = m;
  k_ = k;
  const std::size_t quads = quad_count();
  const std::size_t panels = panel_count();
  data_.assign(panels * kRowTile * quads * kQuadK, 0);
  for (std::size_t p = 0; p < panels; ++p) {
    const std::size_t i0 = p * kRowTile;
    const std::size_t mr = std::min(kRowTile, m - i0);
    std::int8_t* dst = data_.data() + p * kRowTile * quads * kQuadK;
    for (std::size_t q = 0; q < quads; ++q) {
      for (std::size_t r = 0; r < mr; ++r) {
        const std::int8_t* src = a + (i0 + r) * k + q * kQuadK;
        std::int8_t* out = dst + (q * kRowTile + r) * kQuadK;
        const std::size_t kb = std::min(kQuadK, k - q * kQuadK);
        for (std::size_t b = 0; b < kb; ++b) out[b] = src[b];
        // bytes kb..kQuadK stay 0: zero weights neutralise whatever the
        // activation buffer holds in its padding bytes.
      }
    }
  }
}

void pack_u8_quads(const std::uint8_t* b, std::size_t k, std::size_t n,
                   std::uint8_t* out) {
  constexpr std::size_t Q = PackedQuantA::kQuadK;
  const std::size_t quads = (k + Q - 1) / Q;
  if (k % Q != 0) {
    // Zero the final (partial) quad row once; the loop below only
    // writes the live bytes.
    std::memset(out + (quads - 1) * n * Q, 0, n * Q);
  }
  for (std::size_t kk = 0; kk < k; ++kk) {
    const std::uint8_t* src = b + kk * n;
    std::uint8_t* dst = out + (kk / Q) * n * Q + kk % Q;
    for (std::size_t j = 0; j < n; ++j) dst[j * Q] = src[j];
  }
}

// ---------------------------------------------------------------------------
// Scalar kernel
// ---------------------------------------------------------------------------

void qgemm_naive_i32(const std::int8_t* a, const std::uint8_t* b,
                     std::int32_t* c, std::size_t m, std::size_t k,
                     std::size_t n) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      std::int32_t acc = 0;
      for (std::size_t p = 0; p < k; ++p)
        acc += static_cast<std::int32_t>(a[i * k + p]) *
               static_cast<std::int32_t>(b[p * n + j]);
      c[i * n + j] = acc;
    }
}

namespace detail {

namespace {

constexpr std::size_t MR = PackedQuantA::kRowTile;
constexpr std::size_t Q = PackedQuantA::kQuadK;

/// Apply the epilogue to one accumulator and store it to the selected
/// output. Shared by the scalar kernel and the AVX2 column tail.
inline void store_one(std::int32_t acc, std::size_t row, std::size_t idx,
                      const QGemmEpilogue& epi, const QGemmOut& out,
                      float inv_out_scale) noexcept {
  if (epi.row_offset != nullptr) acc -= epi.row_offset[row];
  float v = static_cast<float>(acc) * epi.scale[row];
  if (epi.bias != nullptr) v += epi.bias[row];
  v = apply_epi_act(epi.act, v);
  if (out.f32 != nullptr)
    out.f32[idx] = v;
  else
    out.u8[idx] = requantize_u8(v, inv_out_scale, out.out_zp);
}

}  // namespace

void qgemm_packed_scalar(const PackedQuantA& a, const std::uint8_t* b_quads,
                         std::size_t n, const QGemmEpilogue& epilogue,
                         const QGemmOut& out, bool parallel) {
  const std::size_t m = a.rows();
  const std::size_t quads = a.quad_count();
  const std::size_t ldc = out.ldc != 0 ? out.ldc : n;
  const float inv_out_scale =
      out.u8 != nullptr ? 1.0f / out.out_scale : 1.0f;

  auto panel_job = [&](std::size_t p) {
    const std::int8_t* ap = a.panel(p);
    const std::size_t i0 = p * MR;
    const std::size_t mr = std::min(MR, m - i0);
    // Column blocks keep the accumulator tile in registers/L1 while the
    // quad rows stream past once per block.
    constexpr std::size_t JB = 32;
    std::int32_t acc[MR][JB];
    for (std::size_t j0 = 0; j0 < n; j0 += JB) {
      const std::size_t jb = std::min(JB, n - j0);
      for (std::size_t r = 0; r < mr; ++r)
        std::fill_n(acc[r], jb, 0);
      for (std::size_t q = 0; q < quads; ++q) {
        const std::uint8_t* bq = b_quads + (q * n + j0) * Q;
        const std::int8_t* wq = ap + q * MR * Q;
        for (std::size_t r = 0; r < mr; ++r) {
          const std::int8_t* w = wq + r * Q;
          for (std::size_t j = 0; j < jb; ++j) {
            const std::uint8_t* bb = bq + j * Q;
            acc[r][j] += static_cast<std::int32_t>(w[0]) * bb[0] +
                         static_cast<std::int32_t>(w[1]) * bb[1] +
                         static_cast<std::int32_t>(w[2]) * bb[2] +
                         static_cast<std::int32_t>(w[3]) * bb[3];
          }
        }
      }
      for (std::size_t r = 0; r < mr; ++r)
        for (std::size_t j = 0; j < jb; ++j)
          store_one(acc[r][j], i0 + r, (i0 + r) * ldc + j0 + j, epilogue,
                    out, inv_out_scale);
    }
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

namespace {

bool use_simd(const QGemmConfig& config) noexcept {
  switch (config.path) {
    case GemmPath::kScalar: return false;
    case GemmPath::kSimd:
    case GemmPath::kAuto: return simd::active() == simd::Level::kAvx2;
  }
  return false;
}

void qgemm_dispatch(const PackedQuantA& a, const std::uint8_t* b_quads,
                    std::size_t n, const QGemmEpilogue& epilogue,
                    const detail::QGemmOut& out, const QGemmConfig& config) {
  OCB_CHECK_MSG(epilogue.scale != nullptr,
                "quantized gemm requires per-row dequantize scales");
  if (a.rows() == 0 || n == 0) return;
  if (use_simd(config)) {
    detail::record_dispatch_level(simd::Level::kAvx2);
    detail::qgemm_packed_avx2(a, b_quads, n, epilogue, out, config.parallel);
  } else {
    detail::record_dispatch_level(simd::Level::kScalar);
    detail::qgemm_packed_scalar(a, b_quads, n, epilogue, out,
                                config.parallel);
  }
}

}  // namespace

void qgemm_packed(const PackedQuantA& a, const std::uint8_t* b_quads,
                  float* c, std::size_t n, const QGemmEpilogue& epilogue,
                  const QGemmConfig& config) {
  detail::QGemmOut out;
  out.f32 = c;
  qgemm_dispatch(a, b_quads, n, epilogue, out, config);
}

void qgemm_packed_u8(const PackedQuantA& a, const std::uint8_t* b_quads,
                     std::uint8_t* c, std::size_t n, float out_scale,
                     std::int32_t out_zp, const QGemmEpilogue& epilogue,
                     const QGemmConfig& config) {
  OCB_CHECK_MSG(out_scale > 0.0f, "u8 output requires a positive scale");
  detail::QGemmOut out;
  out.u8 = c;
  out.out_scale = out_scale;
  out.out_zp = out_zp;
  qgemm_dispatch(a, b_quads, n, epilogue, out, config);
}

// ---------------------------------------------------------------------------
// Fused im2col-free path
// ---------------------------------------------------------------------------

namespace {

/// Stripe width for a fused INT8 conv: one quads×width×4-byte panel
/// under the same L2 budget as the FP32 fused_panel_cols.
std::size_t fused_quad_panel_cols(std::size_t quads) noexcept {
  constexpr std::size_t kPanelBudgetBytes = 192 * 1024;
  std::size_t w = kPanelBudgetBytes /
                  std::max<std::size_t>(1, quads * PackedQuantA::kQuadK);
  w = std::min<std::size_t>(512, w) & ~std::size_t{15};
  return std::max<std::size_t>(16, w);
}

void qgemm_im2col_dispatch(const PackedQuantA& a,
                           const Im2colQuadPanelPacker& packer,
                           const detail::QGemmOut& proto, std::size_t ldc,
                           std::uint8_t* panels,
                           const QGemmEpilogue& epilogue,
                           const QGemmConfig& config) {
  OCB_CHECK_MSG(epilogue.scale != nullptr,
                "quantized gemm requires per-row dequantize scales");
  const std::size_t m = a.rows();
  const std::size_t n = packer.cols();
  if (m == 0 || n == 0) return;
  OCB_CHECK_MSG(a.cols() == packer.rows(),
                "packed weight depth != im2col column rows");
  OCB_CHECK_MSG(ldc >= n, "output row stride below the column count");

  const std::size_t quads = a.quad_count();
  const std::size_t w = fused_quad_panel_cols(quads);
  const std::size_t stripes = (n + w - 1) / w;
  const std::size_t bufs = fused_panel_buffers(stripes);
  const std::size_t panel_bytes = quads * PackedQuantA::kQuadK * w;
  const bool simd = use_simd(config);
  detail::record_dispatch_level(simd ? simd::Level::kAvx2
                                     : simd::Level::kScalar);

  auto run_stripe = [&](std::size_t s, std::uint8_t* panel,
                        bool inner_parallel) {
    const std::size_t j0 = s * w;
    const std::size_t jw = std::min(w, n - j0);
    packer.pack(j0, jw, panel);
    detail::QGemmOut out = proto;
    if (out.f32 != nullptr) out.f32 += j0;
    if (out.u8 != nullptr) out.u8 += j0;
    out.ldc = ldc;
    if (simd) {
      detail::qgemm_packed_avx2(a, panel, jw, epilogue, out, inner_parallel);
    } else {
      detail::qgemm_packed_scalar(a, panel, jw, epilogue, out,
                                  inner_parallel);
    }
  };

  detail::stripe_waves(stripes, bufs, panels, panel_bytes, config.parallel,
                       run_stripe);
}

}  // namespace

std::size_t fused_qconv_scratch_bytes(const ConvGeometry& geom) noexcept {
  const std::size_t quads =
      (geom.col_rows() + PackedQuantA::kQuadK - 1) / PackedQuantA::kQuadK;
  const std::size_t n = geom.col_cols();
  const std::size_t w = fused_quad_panel_cols(quads);
  const std::size_t stripes = (n + w - 1) / w;
  return fused_panel_buffers(stripes) * quads * PackedQuantA::kQuadK * w;
}

void qgemm_packed_im2col(const PackedQuantA& a,
                         const Im2colQuadPanelPacker& packer, float* c,
                         std::size_t ldc, std::uint8_t* panels,
                         const QGemmEpilogue& epilogue,
                         const QGemmConfig& config) {
  detail::QGemmOut out;
  out.f32 = c;
  qgemm_im2col_dispatch(a, packer, out, ldc, panels, epilogue, config);
}

void qgemm_packed_im2col_u8(const PackedQuantA& a,
                            const Im2colQuadPanelPacker& packer,
                            std::uint8_t* c, std::size_t ldc,
                            float out_scale, std::int32_t out_zp,
                            std::uint8_t* panels,
                            const QGemmEpilogue& epilogue,
                            const QGemmConfig& config) {
  OCB_CHECK_MSG(out_scale > 0.0f, "u8 output requires a positive scale");
  detail::QGemmOut out;
  out.u8 = c;
  out.out_scale = out_scale;
  out.out_zp = out_zp;
  qgemm_im2col_dispatch(a, packer, out, ldc, panels, epilogue, config);
}

}  // namespace ocb
