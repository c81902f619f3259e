// AVX2/FMA micro-kernels for sparse and half-stored packed GEMM.
//
// This is the second (and last) extended-ISA translation unit next to
// gemm_avx2.cpp / qgemm_avx2.cpp / winograd_avx2.cpp — compiled with
// -mavx2 -mfma, plus -mf16c where the toolchain supports it (see
// src/CMakeLists.txt). The dispatcher (sgemm_sparse.cpp) only routes
// here after CPUID confirms AVX2+FMA (and F16C for fp16-format
// widening), so the baseline build stays runnable on any x86-64.
//
// Both kernel families reuse the dense 6×16 register tile shape
// (gemm_avx2.cpp): 12 accumulators + 2 B loads + 1 broadcast. What
// changes is the A feed:
//
//   - Half storage: each packed k-group is 6 uint16 values; one 128-bit
//     load + VCVTPH2PS (fp16) or zero-extend + shift (bf16) widens the
//     group, which is staged through a 32-byte stack slot so the row
//     broadcasts stay plain 4-byte loads exactly as in the dense
//     kernel. One conversion feeds all 12 FMAs of the tile column, so
//     the widening cost amortises and the kernel's byte traffic per
//     weight halves — the whole point for bandwidth-bound shapes.
//
//   - Sparsity: the k-loop walks the panel's surviving-column list
//     (index + 6 values per entry) instead of the full K extent.
//     Pruned columns cost nothing — no B load, no FMA — so the inner
//     loop contracts by the stored density.
//
// Tails (n % 8 columns) flip the vectorisation axis: lanes hold the
// panel's 6 rows and one FMA per (k-group, column) covers the whole
// group. The dense kernel's tail is a scalar latency chain, so on
// GEMV-shaped calls (linear layers, n == 1) this row-parallel tail is
// where the half/sparse paths pull ahead — the weight stream halves
// *and* the arithmetic stays SIMD.
#include "tensor/sgemm_sparse_kernels.hpp"

#include "core/error.hpp"
#include "parallel/parallel_for.hpp"
#include "tensor/simd.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cstring>

#include "tensor/simd_math.hpp"

namespace ocb::detail {
namespace {

constexpr std::size_t MR = PackedA::kRowTile;  // 6
constexpr std::size_t kColBlock = 512;         // B stripe kept cache-hot

/// Widen one packed 16-bit k-group (6 payload lanes; the buffers carry
/// a 2-element tail pad so the 8-lane load is always in bounds) to 8
/// fp32 lanes. Lanes 6–7 are whatever follows the group — converted
/// but never read.
inline __m256 widen_group(const std::uint16_t* p, HalfFormat format) noexcept {
  const __m128i h = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  if (format == HalfFormat::kFp16) {
#if defined(__F16C__)
    return _mm256_cvtph_ps(h);
#else
    // Toolchain without F16C: widen via the scalar routine. The
    // dispatcher prefers this TU anyway (it still skips work /
    // halves panel bytes); conversion just costs more per group.
    alignas(32) float wide[8];
    for (int r = 0; r < 8; ++r) wide[r] = half_bits_to_float(p[r], format);
    return _mm256_load_ps(wide);
#endif
  }
  // bf16: zero-extend each lane to 32 bits and shift into the high half.
  const __m256i w = _mm256_cvtepu16_epi32(h);
  return _mm256_castsi256_ps(_mm256_slli_epi32(w, 16));
}

/// Dense-traversal register tile over half-stored A: rows [i0, i0+mr) ×
/// columns [j, j + 8·NV). Same epilogue/accumulate contract as the
/// dense kernel_tile (gemm_avx2.cpp).
template <int NV>
inline void half_tile(const std::uint16_t* ap, HalfFormat format,
                      const float* b, std::size_t ldb, float* c,
                      std::size_t ldc, std::size_t k, std::size_t mr,
                      bool accumulate, const float* bias_panel,
                      EpiAct act) noexcept {
  __m256 acc[MR][NV];
  for (std::size_t r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v) acc[r][v] = _mm256_setzero_ps();

  alignas(32) float wide[8];
  const float* bp = b;
  for (std::size_t kk = 0; kk < k; ++kk) {
    __m256 bv[NV];
    for (int v = 0; v < NV; ++v) bv[v] = _mm256_loadu_ps(bp + 8 * v);
    _mm256_store_ps(wide, widen_group(ap + kk * MR, format));
    for (std::size_t r = 0; r < MR; ++r) {
      const __m256 av = _mm256_broadcast_ss(wide + r);
      for (int v = 0; v < NV; ++v)
        acc[r][v] = _mm256_fmadd_ps(av, bv[v], acc[r][v]);
    }
    bp += ldb;
  }

  for (std::size_t r = 0; r < mr; ++r) {
    float* crow = c + r * ldc;
    const __m256 bias = bias_panel != nullptr
                            ? _mm256_broadcast_ss(bias_panel + r)
                            : _mm256_setzero_ps();
    for (int v = 0; v < NV; ++v) {
      __m256 val = acc[r][v];
      if (accumulate) {
        val = _mm256_add_ps(_mm256_loadu_ps(crow + 8 * v), val);
      } else {
        val = apply_act256(_mm256_add_ps(val, bias), act);
      }
      _mm256_storeu_ps(crow + 8 * v, val);
    }
  }
}

/// Write back one row-parallel accumulator column: lane r of `acc` is
/// C[i0+r][j]. Scalar epilogue per live row.
inline void store_row_lanes(__m256 acc, float* c, std::size_t ldc,
                            std::size_t j, std::size_t mr, bool accumulate,
                            const float* bias_panel, EpiAct act) noexcept {
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  for (std::size_t r = 0; r < mr; ++r) {
    if (accumulate) {
      c[r * ldc + j] += lanes[r];
    } else {
      float v = lanes[r];
      if (bias_panel != nullptr) v += bias_panel[r];
      c[r * ldc + j] = apply_epi_act(act, v);
    }
  }
}

/// Remainder columns (cols < 8) over half-stored A, vectorised across
/// the *rows*: one widen + one broadcast + one FMA per (k-group,
/// column) accumulates all 6 rows at once (lanes 6–7 collect pad
/// garbage, never read). This is the GEMV path for n == 1 linear
/// layers; the dense kernel's scalar tail runs one latency-bound FMA
/// per element there, so this path is both narrower in bytes and ~6×
/// wider in arithmetic.
void half_tail(const std::uint16_t* ap, HalfFormat format, const float* b,
               std::size_t ldb, float* c, std::size_t ldc, std::size_t k,
               std::size_t cols, std::size_t mr, bool accumulate,
               const float* bias_panel, EpiAct act) noexcept {
  __m256 acc[7];
  for (std::size_t j = 0; j < cols; ++j) acc[j] = _mm256_setzero_ps();
  for (std::size_t kk = 0; kk < k; ++kk) {
    const __m256 av = widen_group(ap + kk * MR, format);
    const float* brow = b + kk * ldb;
    for (std::size_t j = 0; j < cols; ++j)
      acc[j] = _mm256_fmadd_ps(av, _mm256_broadcast_ss(brow + j), acc[j]);
  }
  for (std::size_t j = 0; j < cols; ++j)
    store_row_lanes(acc[j], c, ldc, j, mr, accumulate, bias_panel, act);
}

/// Sparse register tile: identical to the dense tile except the k-loop
/// walks the surviving-column list. `vals` holds MR fp32 values per
/// entry; `vals16` (when non-null) the half-stored variant.
template <int NV>
inline void sparse_tile(const float* vals, const std::uint16_t* vals16,
                        HalfFormat format, const std::uint32_t* idx,
                        std::size_t nnz, const float* b, std::size_t ldb,
                        float* c, std::size_t ldc, std::size_t mr,
                        bool accumulate, const float* bias_panel,
                        EpiAct act) noexcept {
  __m256 acc[MR][NV];
  for (std::size_t r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v) acc[r][v] = _mm256_setzero_ps();

  alignas(32) float wide[8];
  for (std::size_t t = 0; t < nnz; ++t) {
    const float* bp = b + static_cast<std::size_t>(idx[t]) * ldb;
    __m256 bv[NV];
    for (int v = 0; v < NV; ++v) bv[v] = _mm256_loadu_ps(bp + 8 * v);
    const float* apk;
    if (vals16 != nullptr) {
      _mm256_store_ps(wide, widen_group(vals16 + t * MR, format));
      apk = wide;
    } else {
      apk = vals + t * MR;
    }
    for (std::size_t r = 0; r < MR; ++r) {
      const __m256 av = _mm256_broadcast_ss(apk + r);
      for (int v = 0; v < NV; ++v)
        acc[r][v] = _mm256_fmadd_ps(av, bv[v], acc[r][v]);
    }
  }

  for (std::size_t r = 0; r < mr; ++r) {
    float* crow = c + r * ldc;
    const __m256 bias = bias_panel != nullptr
                            ? _mm256_broadcast_ss(bias_panel + r)
                            : _mm256_setzero_ps();
    for (int v = 0; v < NV; ++v) {
      __m256 val = acc[r][v];
      if (accumulate) {
        val = _mm256_add_ps(_mm256_loadu_ps(crow + 8 * v), val);
      } else {
        val = apply_act256(_mm256_add_ps(val, bias), act);
      }
      _mm256_storeu_ps(crow + 8 * v, val);
    }
  }
}

/// Sparse remainder columns, row-parallel as in half_tail. Both value
/// buffers carry a 2-element tail pad (see PackedSparseA::pack) so the
/// 8-lane loads at the last entry stay in bounds.
void sparse_tail(const float* vals, const std::uint16_t* vals16,
                 HalfFormat format, const std::uint32_t* idx, std::size_t nnz,
                 const float* b, std::size_t ldb, float* c, std::size_t ldc,
                 std::size_t cols, std::size_t mr, bool accumulate,
                 const float* bias_panel, EpiAct act) noexcept {
  __m256 acc[7];
  for (std::size_t j = 0; j < cols; ++j) acc[j] = _mm256_setzero_ps();
  for (std::size_t t = 0; t < nnz; ++t) {
    const __m256 av = vals16 != nullptr
                          ? widen_group(vals16 + t * MR, format)
                          : _mm256_loadu_ps(vals + t * MR);
    const float* brow = b + static_cast<std::size_t>(idx[t]) * ldb;
    for (std::size_t j = 0; j < cols; ++j)
      acc[j] = _mm256_fmadd_ps(av, _mm256_broadcast_ss(brow + j), acc[j]);
  }
  for (std::size_t j = 0; j < cols; ++j)
    store_row_lanes(acc[j], c, ldc, j, mr, accumulate, bias_panel, act);
}

}  // namespace

void gemm_half_avx2(const PackedHalfA& a, const float* b, std::size_t ldb,
                    float* c, std::size_t ldc, std::size_t n,
                    bool accumulate, const GemmEpilogue& epilogue,
                    bool parallel) {
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t panels = a.panel_count();
  const HalfFormat format = a.format();
  const EpiAct act = epilogue.act;

  for (std::size_t jc = 0; jc < n; jc += kColBlock) {
    const std::size_t jc_end = std::min(n, jc + kColBlock);
    auto panel_job = [&](std::size_t p) {
      const std::uint16_t* ap = a.panel(p);
      const std::size_t i0 = p * MR;
      const std::size_t mr = std::min(MR, m - i0);
      const float* bias_panel =
          epilogue.bias != nullptr ? epilogue.bias + i0 : nullptr;
      float* cpanel = c + i0 * ldc;
      std::size_t j = jc;
      for (; j + 16 <= jc_end; j += 16)
        half_tile<2>(ap, format, b + j, ldb, cpanel + j, ldc, k, mr,
                     accumulate, bias_panel, act);
      for (; j + 8 <= jc_end; j += 8)
        half_tile<1>(ap, format, b + j, ldb, cpanel + j, ldc, k, mr,
                     accumulate, bias_panel, act);
      if (j < jc_end)
        half_tail(ap, format, b + j, ldb, cpanel + j, ldc, k, jc_end - j, mr,
                  accumulate, bias_panel, act);
    };
    if (parallel && panels > 1) {
      parallel_for(0, panels, panel_job, /*grain=*/1);
    } else {
      for (std::size_t p = 0; p < panels; ++p) panel_job(p);
    }
  }
}

void gemm_sparse_avx2(const PackedSparseA& a, const float* b,
                      std::size_t ldb, float* c, std::size_t ldc,
                      std::size_t n, bool accumulate,
                      const GemmEpilogue& epilogue, bool parallel) {
  const std::size_t m = a.rows();
  const std::size_t panels = a.panel_count();
  const bool half = a.half();
  const HalfFormat format = a.format();
  const EpiAct act = epilogue.act;

  for (std::size_t jc = 0; jc < n; jc += kColBlock) {
    const std::size_t jc_end = std::min(n, jc + kColBlock);
    auto panel_job = [&](std::size_t p) {
      const std::size_t i0 = p * MR;
      const std::size_t mr = std::min(MR, m - i0);
      const std::size_t nnz = a.panel_nnz(p);
      const std::uint32_t* idx = a.panel_indices(p);
      const float* vals = half ? nullptr : a.panel_values(p);
      const std::uint16_t* vals16 = half ? a.panel_values_half(p) : nullptr;
      const float* bias_panel =
          epilogue.bias != nullptr ? epilogue.bias + i0 : nullptr;
      float* cpanel = c + i0 * ldc;
      std::size_t j = jc;
      for (; j + 16 <= jc_end; j += 16)
        sparse_tile<2>(vals, vals16, format, idx, nnz, b + j, ldb, cpanel + j,
                       ldc, mr, accumulate, bias_panel, act);
      for (; j + 8 <= jc_end; j += 8)
        sparse_tile<1>(vals, vals16, format, idx, nnz, b + j, ldb, cpanel + j,
                       ldc, mr, accumulate, bias_panel, act);
      if (j < jc_end)
        sparse_tail(vals, vals16, format, idx, nnz, b + j, ldb, cpanel + j,
                    ldc, jc_end - j, mr, accumulate, bias_panel, act);
    };
    if (parallel && panels > 1) {
      parallel_for(0, panels, panel_job, /*grain=*/1);
    } else {
      for (std::size_t p = 0; p < panels; ++p) panel_job(p);
    }
  }
}

}  // namespace ocb::detail

#else  // !(__AVX2__ && __FMA__): baseline build of this TU

namespace ocb::detail {

void gemm_half_avx2(const PackedHalfA& a, const float* b, std::size_t ldb,
                    float* c, std::size_t ldc, std::size_t n,
                    bool accumulate, const GemmEpilogue& epilogue,
                    bool parallel) {
  // The dispatcher never routes here when AVX2 isn't compiled in; keep
  // a correct fallback anyway rather than a trap.
  gemm_half_scalar(a, b, ldb, c, ldc, n, accumulate, epilogue, parallel);
}

void gemm_sparse_avx2(const PackedSparseA& a, const float* b,
                      std::size_t ldb, float* c, std::size_t ldc,
                      std::size_t n, bool accumulate,
                      const GemmEpilogue& epilogue, bool parallel) {
  gemm_sparse_scalar(a, b, ldb, c, ldc, n, accumulate, epilogue, parallel);
}

}  // namespace ocb::detail

#endif
