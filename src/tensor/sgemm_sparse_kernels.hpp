// Internal contract between the sparse/half GEMM dispatchers
// (sgemm_sparse.cpp) and the extended-ISA translation unit
// (sgemm_sparse_avx2.cpp). Not installed as public API.
//
// Both sides consume the same packed layouts, so a matrix packed once
// is valid whichever path the dispatcher picks (the OCB_DISABLE_SIMD
// override can flip mid-process without repacking). Every kernel
// reads B with row stride `ldb` and writes C with row stride `ldc`:
// the classic call passes ldb == ldc == n, the im2col stripe driver
// a packed panel window and the output's row stride, as the dense
// stripe kernels do (gemm_kernels.hpp).
#pragma once

#include <cstddef>

#include "tensor/sgemm_sparse.hpp"
#include "tensor/simd.hpp"

namespace ocb::detail {

/// AVX2/FMA half-storage kernel: widens each packed 16-bit group with
/// F16C (fp16, when compiled in) or an integer shift (bf16) and runs
/// the dense 6×16 tile. Defined in sgemm_sparse_avx2.cpp; must only be
/// called when simd::active() == Level::kAvx2.
void gemm_half_avx2(const PackedHalfA& a, const float* b, std::size_t ldb,
                    float* c, std::size_t ldc, std::size_t n,
                    bool accumulate, const GemmEpilogue& epilogue,
                    bool parallel);

/// Scalar half-storage kernel with identical traversal and epilogue
/// semantics — the fallback and the oracle for the AVX2 path.
void gemm_half_scalar(const PackedHalfA& a, const float* b, std::size_t ldb,
                      float* c, std::size_t ldc, std::size_t n,
                      bool accumulate, const GemmEpilogue& epilogue,
                      bool parallel);

/// AVX2/FMA sparse kernel: iterates each panel's surviving-column list
/// (fp32 or half-stored values) instead of the full K range.
void gemm_sparse_avx2(const PackedSparseA& a, const float* b,
                      std::size_t ldb, float* c, std::size_t ldc,
                      std::size_t n, bool accumulate,
                      const GemmEpilogue& epilogue, bool parallel);

/// Scalar sparse kernel — fallback and oracle.
void gemm_sparse_scalar(const PackedSparseA& a, const float* b,
                        std::size_t ldb, float* c, std::size_t ldc,
                        std::size_t n, bool accumulate,
                        const GemmEpilogue& epilogue, bool parallel);

/// fp16 widening on the AVX2 path may use F16C (every AVX2-era core has
/// it, but the dispatcher checks rather than assumes); bf16 widens with
/// plain integer ops and needs no extra ISA.
inline bool half_simd_ok(HalfFormat format) noexcept {
  return format == HalfFormat::kBf16 || simd::cpu_supports_f16c();
}

}  // namespace ocb::detail
