// AVX2/FMA packed-GEMM micro-kernels.
//
// This is the only translation unit compiled with -mavx2 -mfma (see
// src/CMakeLists.txt); the dispatcher only routes here after CPUID
// confirms the host supports both (tensor/simd.hpp), so the baseline
// build stays runnable on any x86-64.
//
// Kernel shape: 6×16 register tile over PackedA row panels. Six rows ×
// two ymm columns gives 12 accumulators + 2 B loads + 1 broadcast = 15
// of the 16 ymm registers, the largest tile that fits without spills
// (an 8×16 tile needs 19 live registers). B is walked in 512-column
// blocks so one K×block stripe stays cache-resident across all row
// panels; A panels stream k-major, one broadcast per packed element.
//
// The fused epilogue (bias + ReLU/SiLU/Sigmoid) runs on the register
// tile before write-back, so activated conv output is produced in a
// single pass over C. exp() uses the same exp2-based degree-6
// polynomial as the scalar fast_exp() in gemm.cpp — max relative error
// vs std::exp ≈ 2 ULP (≈2.4e-7); the FMA contraction here can differ
// from the scalar reference by 1 ULP more, still far inside the 1e-4
// equivalence bound the kernel tests enforce.
#include "tensor/gemm_kernels.hpp"

#include "core/error.hpp"
#include "parallel/parallel_for.hpp"
#include "tensor/simd.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cstring>

#include "tensor/simd_math.hpp"

namespace ocb::simd {
bool avx2_compiled() noexcept { return true; }
}  // namespace ocb::simd

namespace ocb::detail {
namespace {

constexpr std::size_t MR = PackedA::kRowTile;  // 6
constexpr std::size_t kColBlock = 512;         // B stripe kept cache-hot

/// Lane mask enabling the first `cols` (< 8) columns of an 8-wide tile.
inline __m256i tail_mask(std::size_t cols) noexcept {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(cols)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// Eight consecutive columns: all of them, or only the lanes `mask`
/// enables (masked-off lanes are neither read nor written).
template <bool Masked>
inline __m256 load8(const float* p, [[maybe_unused]] __m256i mask) noexcept {
  if constexpr (Masked) {
    return _mm256_maskload_ps(p, mask);
  } else {
    return _mm256_loadu_ps(p);
  }
}

template <bool Masked>
inline void store8(float* p, [[maybe_unused]] __m256i mask,
                   __m256 v) noexcept {
  if constexpr (Masked) {
    _mm256_maskstore_ps(p, mask, v);
  } else {
    _mm256_storeu_ps(p, v);
  }
}

/// One register tile: rows [i0, i0+mr) × columns [j, j + 8·NV).
/// `ap` is the panel (k-major, MR floats per k); B rows stride `ldb`,
/// C rows stride `ldc` (equal for the classic call, distinct on the
/// fused stripe path). Accumulates over the full K extent, combines
/// with C per the epilogue mode in registers, then writes each live row
/// back exactly once. The Masked variant is the n % 8 column tail: B
/// and C move through `mask`, so lanes past the last column are never
/// read or written — the same vector FMA chain and epilogue as a full
/// tile, with no scalar remainder loop.
template <int NV, bool Masked = false>
inline void kernel_tile(const float* ap, const float* b, float* c,
                        std::size_t ldb, std::size_t ldc, std::size_t k,
                        std::size_t mr, bool accumulate,
                        const float* bias_panel, EpiAct act, EpiMode mode,
                        __m256i mask = _mm256_setzero_si256()) noexcept {
  static_assert(!Masked || NV == 1, "the masked tail is one vector wide");
  __m256 acc[MR][NV];
  for (std::size_t r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v) acc[r][v] = _mm256_setzero_ps();

  const float* bp = b;
  for (std::size_t kk = 0; kk < k; ++kk) {
    __m256 bv[NV];
    for (int v = 0; v < NV; ++v) bv[v] = load8<Masked>(bp + 8 * v, mask);
    const float* apk = ap + kk * MR;
    for (std::size_t r = 0; r < MR; ++r) {
      const __m256 av = _mm256_broadcast_ss(apk + r);
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
        val = _mm256_add_ps(load8<Masked>(crow + 8 * v, mask), val);
      } else {
        switch (mode) {
          case EpiMode::kStore:
            val = apply_act256(_mm256_add_ps(val, bias), act);
            break;
          case EpiMode::kAccThenAct:
            val = _mm256_add_ps(load8<Masked>(crow + 8 * v, mask), val);
            val = apply_act256(_mm256_add_ps(val, bias), act);
            break;
          case EpiMode::kActThenAcc:
            val = apply_act256(_mm256_add_ps(val, bias), act);
            val = _mm256_add_ps(load8<Masked>(crow + 8 * v, mask), val);
            break;
        }
      }
      store8<Masked>(crow + 8 * v, mask, val);
    }
  }
}

}  // namespace

namespace {

/// Shared driver: panels × column blocks over a B window with row
/// stride ldb and a C window with row stride ldc. The classic call
/// passes ldb == ldc == n; the fused stripe passes the panel width.
void packed_driver_avx2(const PackedA& a, const float* b, std::size_t ldb,
                        float* c, std::size_t ldc, std::size_t n,
                        bool accumulate, const GemmEpilogue& epilogue,
                        bool parallel) {
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t panels = a.panel_count();
  const EpiAct act = epilogue.act;
  const EpiMode mode = epilogue.mode;

  // Column blocks keep one K×kColBlock stripe of B cache-resident while
  // every row panel streams over it; panels parallelise freely inside a
  // block because they write disjoint C rows.
  for (std::size_t jc = 0; jc < n; jc += kColBlock) {
    const std::size_t jc_end = std::min(n, jc + kColBlock);
    auto panel_job = [&](std::size_t p) {
      const float* ap = a.panel(p);
      const std::size_t i0 = p * MR;
      const std::size_t mr = std::min(MR, m - i0);
      const float* bias_panel =
          epilogue.bias != nullptr ? epilogue.bias + i0 : nullptr;
      float* cpanel = c + i0 * ldc;
      std::size_t j = jc;
      for (; j + 16 <= jc_end; j += 16)
        kernel_tile<2>(ap, b + j, cpanel + j, ldb, ldc, k, mr, accumulate,
                       bias_panel, act, mode);
      for (; j + 8 <= jc_end; j += 8)
        kernel_tile<1>(ap, b + j, cpanel + j, ldb, ldc, k, mr, accumulate,
                       bias_panel, act, mode);
      if (j < jc_end)
        kernel_tile<1, true>(ap, b + j, cpanel + j, ldb, ldc, k, mr,
                             accumulate, bias_panel, act, mode,
                             tail_mask(jc_end - j));
    };
    if (parallel && panels > 1) {
      parallel_for(0, panels, panel_job, /*grain=*/1);
    } else {
      for (std::size_t p = 0; p < panels; ++p) panel_job(p);
    }
  }
}

}  // namespace

void gemm_packed_avx2(const PackedA& a, const float* b, std::size_t ldb,
                      float* c, std::size_t ldc, std::size_t n,
                      bool accumulate, const GemmEpilogue& epilogue,
                      bool parallel) {
  packed_driver_avx2(a, b, ldb, c, ldc, n, accumulate, epilogue, parallel);
}

}  // namespace ocb::detail

#else  // !(__AVX2__ && __FMA__): baseline build of this TU

namespace ocb::simd {
bool avx2_compiled() noexcept { return false; }
}  // namespace ocb::simd

namespace ocb::detail {

void gemm_packed_avx2(const PackedA& a, const float* b, std::size_t ldb,
                      float* c, std::size_t ldc, std::size_t n,
                      bool accumulate, const GemmEpilogue& epilogue,
                      bool parallel) {
  // The dispatcher never routes here when avx2_compiled() is false;
  // keep a correct fallback anyway rather than a trap.
  gemm_packed_scalar(a, b, ldb, c, ldc, n, accumulate, epilogue, parallel);
}

}  // namespace ocb::detail

#endif
