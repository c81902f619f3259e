#include "tensor/sgemm_sparse.hpp"

#include <algorithm>
#include <cstring>

#include "core/crc32.hpp"
#include "core/error.hpp"
#include "parallel/parallel_for.hpp"
#include "tensor/gemm_kernels.hpp"
#include "tensor/sgemm_sparse_kernels.hpp"
#include "tensor/simd.hpp"

namespace ocb {

const char* half_format_name(HalfFormat format) noexcept {
  switch (format) {
    case HalfFormat::kFp16: return "fp16";
    case HalfFormat::kBf16: return "bf16";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Scalar 16-bit conversions. Round-to-nearest-even throughout so the
// scalar pack produces exactly the bits VCVTPS2PH would, and widening
// matches VCVTPH2PS — the SIMD and scalar kernels then compute with
// identical weights (tests/test_sparse.cpp checks fp16 exhaustively).
// ---------------------------------------------------------------------------

namespace {

std::uint32_t float_bits(float value) noexcept {
  std::uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

float bits_float(std::uint32_t bits) noexcept {
  float value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

std::uint16_t f32_to_f16(float value) noexcept {
  std::uint32_t bits = float_bits(value);
  const std::uint16_t sign = static_cast<std::uint16_t>((bits >> 16) & 0x8000u);
  bits &= 0x7fffffffu;
  if (bits > 0x7f800000u) return sign | 0x7e00u;  // NaN -> quiet NaN
  if (bits >= 0x47800000u) return sign | 0x7c00u;  // overflow / inf
  if (bits >= 0x38800000u) {
    // Normal half: rebias the exponent, round 23 -> 10 mantissa bits.
    // The round-up carry propagates into the exponent (and on to inf
    // for values in (65504, 65520)) by plain integer addition.
    const std::uint32_t e = (bits >> 23) - 112u;
    const std::uint32_t mant = bits & 0x7fffffu;
    std::uint32_t half = (e << 10) | (mant >> 13);
    const std::uint32_t rem = mant & 0x1fffu;
    if (rem > 0x1000u || (rem == 0x1000u && (half & 1u) != 0))
      ++half;
    return static_cast<std::uint16_t>(sign | half);
  }
  if (bits <= 0x33000000u) return sign;  // underflows to signed zero
  // Subnormal half: the significand (with its hidden bit) shifts right
  // until the exponent reaches 2^-24; round the shifted-out bits RNE.
  const std::uint32_t e = bits >> 23;
  const std::uint32_t mant = (bits & 0x7fffffu) | 0x800000u;
  const std::uint32_t shift = 126u - e;  // 14..24
  std::uint32_t half = mant >> shift;
  const std::uint32_t rem = mant & ((1u << shift) - 1u);
  const std::uint32_t halfway = 1u << (shift - 1u);
  if (rem > halfway || (rem == halfway && (half & 1u) != 0)) ++half;
  return static_cast<std::uint16_t>(sign | half);
}

float f16_to_f32(std::uint16_t bits) noexcept {
  const std::uint32_t sign = static_cast<std::uint32_t>(bits & 0x8000u) << 16;
  std::uint32_t e = (bits >> 10) & 0x1fu;
  std::uint32_t m = bits & 0x3ffu;
  if (e == 0) {
    if (m == 0) return bits_float(sign);
    // Subnormal: renormalise the significand into the hidden bit.
    std::uint32_t shift = 0;
    while ((m & 0x400u) == 0) {
      m <<= 1;
      ++shift;
    }
    m &= 0x3ffu;
    return bits_float(sign | ((113u - shift) << 23) | (m << 13));
  }
  if (e == 31) return bits_float(sign | 0x7f800000u | (m << 13));
  return bits_float(sign | ((e + 112u) << 23) | (m << 13));
}

std::uint16_t f32_to_bf16(float value) noexcept {
  const std::uint32_t bits = float_bits(value);
  if ((bits & 0x7fffffffu) > 0x7f800000u)  // NaN: keep it quiet, keep payload
    return static_cast<std::uint16_t>((bits >> 16) | 0x0040u);
  const std::uint32_t rounded = bits + 0x7fffu + ((bits >> 16) & 1u);
  return static_cast<std::uint16_t>(rounded >> 16);
}

float bf16_to_f32(std::uint16_t bits) noexcept {
  return bits_float(static_cast<std::uint32_t>(bits) << 16);
}

}  // namespace

std::uint16_t float_to_half_bits(float value, HalfFormat format) noexcept {
  return format == HalfFormat::kFp16 ? f32_to_f16(value) : f32_to_bf16(value);
}

float half_bits_to_float(std::uint16_t bits, HalfFormat format) noexcept {
  return format == HalfFormat::kFp16 ? f16_to_f32(bits) : bf16_to_f32(bits);
}

// ---------------------------------------------------------------------------
// PackedHalfA
// ---------------------------------------------------------------------------

void PackedHalfA::pack(const float* a, std::size_t m, std::size_t k,
                       HalfFormat format) {
  m_ = m;
  k_ = k;
  format_ = format;
  const std::size_t panels = panel_count();
  // +2: the AVX2 kernel widens 8 lanes at a time (128-bit loads) but
  // only kRowTile == 6 are payload; the pad keeps the final load of the
  // final panel inside the buffer.
  data_.resize(panels * kRowTile * k + 2);
  for (std::size_t p = 0; p < panels; ++p) {
    const std::size_t i0 = p * kRowTile;
    const std::size_t mr = std::min(kRowTile, m - i0);
    std::uint16_t* dst = data_.data() + p * kRowTile * k;
    for (std::size_t kk = 0; kk < k; ++kk) {
      for (std::size_t r = 0; r < mr; ++r)
        dst[kk * kRowTile + r] =
            float_to_half_bits(a[(i0 + r) * k + kk], format);
      for (std::size_t r = mr; r < kRowTile; ++r) dst[kk * kRowTile + r] = 0;
    }
  }
  data_[panels * kRowTile * k] = 0;
  data_[panels * kRowTile * k + 1] = 0;
}

void PackedHalfA::unpack_dense(float* out) const {
  const std::size_t panels = panel_count();
  for (std::size_t p = 0; p < panels; ++p) {
    const std::size_t i0 = p * kRowTile;
    const std::size_t mr = std::min(kRowTile, m_ - i0);
    const std::uint16_t* src = panel(p);
    for (std::size_t kk = 0; kk < k_; ++kk)
      for (std::size_t r = 0; r < mr; ++r)
        out[(i0 + r) * k_ + kk] =
            half_bits_to_float(src[kk * kRowTile + r], format_);
  }
}

std::uint32_t PackedHalfA::checksum() const noexcept {
  return crc32(data_.data(), data_.size() * sizeof(std::uint16_t));
}

// ---------------------------------------------------------------------------
// PackedSparseA
// ---------------------------------------------------------------------------

void PackedSparseA::build_index(const float* /*a*/, std::size_t m,
                                std::size_t k, const std::uint8_t* mask) {
  m_ = m;
  k_ = k;
  const std::size_t panels = panel_count();
  offsets_.assign(panels + 1, 0);
  indices_.clear();
  indices_.reserve(panels * k);
  for (std::size_t p = 0; p < panels; ++p) {
    const std::size_t i0 = p * kRowTile;
    const std::size_t mr = std::min(kRowTile, m - i0);
    for (std::size_t kk = 0; kk < k; ++kk) {
      bool keep = false;
      for (std::size_t r = 0; r < mr && !keep; ++r)
        keep = mask[(i0 + r) * k + kk] != 0;
      if (keep) indices_.push_back(static_cast<std::uint32_t>(kk));
    }
    offsets_[p + 1] = static_cast<std::uint32_t>(indices_.size());
  }
}

void PackedSparseA::pack(const float* a, std::size_t m, std::size_t k,
                         const std::uint8_t* mask) {
  build_index(a, m, k, mask);
  half_ = false;
  values16_.clear();
  // +2: the AVX2 tail loads 8 fp32 lanes per entry (6 payload); the pad
  // keeps the last entry's load in bounds.
  values_.assign(indices_.size() * kRowTile + 2, 0.0f);
  const std::size_t panels = panel_count();
  for (std::size_t p = 0; p < panels; ++p) {
    const std::size_t i0 = p * kRowTile;
    const std::size_t mr = std::min(kRowTile, m - i0);
    for (std::size_t t = offsets_[p]; t < offsets_[p + 1]; ++t) {
      const std::size_t kk = indices_[t];
      float* dst = values_.data() + static_cast<std::size_t>(t) * kRowTile;
      for (std::size_t r = 0; r < mr; ++r)
        dst[r] = mask[(i0 + r) * k + kk] != 0 ? a[(i0 + r) * k + kk] : 0.0f;
    }
  }
}

void PackedSparseA::pack(const float* a, std::size_t m, std::size_t k,
                         const std::uint8_t* mask, HalfFormat format) {
  build_index(a, m, k, mask);
  half_ = true;
  format_ = format;
  values_.clear();
  values16_.assign(indices_.size() * kRowTile + 2, 0);  // +2: see PackedHalfA
  const std::size_t panels = panel_count();
  for (std::size_t p = 0; p < panels; ++p) {
    const std::size_t i0 = p * kRowTile;
    const std::size_t mr = std::min(kRowTile, m - i0);
    for (std::size_t t = offsets_[p]; t < offsets_[p + 1]; ++t) {
      const std::size_t kk = indices_[t];
      std::uint16_t* dst =
          values16_.data() + static_cast<std::size_t>(t) * kRowTile;
      for (std::size_t r = 0; r < mr; ++r)
        dst[r] = mask[(i0 + r) * k + kk] != 0
                     ? float_to_half_bits(a[(i0 + r) * k + kk], format)
                     : 0;
    }
  }
}

double PackedSparseA::density() const noexcept {
  const std::size_t total = panel_count() * k_;
  if (total == 0) return 1.0;
  return static_cast<double>(indices_.size()) / static_cast<double>(total);
}

std::size_t PackedSparseA::stored_bytes() const noexcept {
  const std::size_t per_col =
      sizeof(std::uint32_t) +
      kRowTile * (half_ ? sizeof(std::uint16_t) : sizeof(float));
  return indices_.size() * per_col;
}

std::uint32_t PackedSparseA::checksum() const noexcept {
  std::uint32_t crc =
      crc32(offsets_.data(), offsets_.size() * sizeof(std::uint32_t));
  crc = crc32(indices_.data(), indices_.size() * sizeof(std::uint32_t), crc);
  crc = crc32(values_.data(), values_.size() * sizeof(float), crc);
  return crc32(values16_.data(), values16_.size() * sizeof(std::uint16_t),
               crc);
}

void PackedSparseA::unpack_masked_dense(float* out) const {
  std::memset(out, 0, m_ * k_ * sizeof(float));
  const std::size_t panels = panel_count();
  for (std::size_t p = 0; p < panels; ++p) {
    const std::size_t i0 = p * kRowTile;
    const std::size_t mr = std::min(kRowTile, m_ - i0);
    for (std::size_t t = offsets_[p]; t < offsets_[p + 1]; ++t) {
      const std::size_t kk = indices_[t];
      for (std::size_t r = 0; r < mr; ++r) {
        const std::size_t v = static_cast<std::size_t>(t) * kRowTile + r;
        out[(i0 + r) * k_ + kk] =
            half_ ? half_bits_to_float(values16_[v], format_) : values_[v];
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Scalar kernels
// ---------------------------------------------------------------------------

namespace detail {

void gemm_half_scalar(const PackedHalfA& a, const float* b, std::size_t ldb,
                      float* c, std::size_t ldc, std::size_t n,
                      bool accumulate, const GemmEpilogue& epilogue,
                      bool parallel) {
  constexpr std::size_t MR = PackedHalfA::kRowTile;
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const HalfFormat format = a.format();

  auto panel_job = [&](std::size_t p) {
    const std::uint16_t* ap = a.panel(p);
    const std::size_t i0 = p * MR;
    const std::size_t mr = std::min(MR, m - i0);
    float* cpanel = c + i0 * ldc;
    if (!accumulate)
      for (std::size_t r = 0; r < mr; ++r)
        std::memset(cpanel + r * ldc, 0, n * sizeof(float));
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float* brow = b + kk * ldb;
      // Widen the whole k-group once; the j-loop then matches the dense
      // scalar kernel exactly.
      float wide[MR];
      for (std::size_t r = 0; r < MR; ++r)
        wide[r] = half_bits_to_float(ap[kk * MR + r], format);
      for (std::size_t r = 0; r < mr; ++r) {
        const float aval = wide[r];
        float* crow = cpanel + r * ldc;
        for (std::size_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
      }
    }
    if (epilogue.active()) {
      for (std::size_t r = 0; r < mr; ++r)
        epilogue_row_scalar(
            cpanel + r * ldc, n,
            epilogue.bias != nullptr ? epilogue.bias[i0 + r] : 0.0f,
            epilogue.act);
    }
  };

  const std::size_t panels = a.panel_count();
  if (parallel && panels > 1) {
    parallel_for(0, panels, panel_job, /*grain=*/1);
  } else {
    for (std::size_t p = 0; p < panels; ++p) panel_job(p);
  }
}

void gemm_sparse_scalar(const PackedSparseA& a, const float* b,
                        std::size_t ldb, float* c, std::size_t ldc,
                        std::size_t n, bool accumulate,
                        const GemmEpilogue& epilogue, bool parallel) {
  constexpr std::size_t MR = PackedSparseA::kRowTile;
  const std::size_t m = a.rows();
  const bool half = a.half();
  const HalfFormat format = a.format();

  auto panel_job = [&](std::size_t p) {
    const std::size_t i0 = p * MR;
    const std::size_t mr = std::min(MR, m - i0);
    const std::size_t nnz = a.panel_nnz(p);
    const std::uint32_t* idx = a.panel_indices(p);
    float* cpanel = c + i0 * ldc;
    if (!accumulate)
      for (std::size_t r = 0; r < mr; ++r)
        std::memset(cpanel + r * ldc, 0, n * sizeof(float));
    for (std::size_t t = 0; t < nnz; ++t) {
      const float* brow = b + static_cast<std::size_t>(idx[t]) * ldb;
      float wide[MR];
      if (half) {
        const std::uint16_t* vals = a.panel_values_half(p) + t * MR;
        for (std::size_t r = 0; r < MR; ++r)
          wide[r] = half_bits_to_float(vals[r], format);
      } else {
        const float* vals = a.panel_values(p) + t * MR;
        for (std::size_t r = 0; r < MR; ++r) wide[r] = vals[r];
      }
      for (std::size_t r = 0; r < mr; ++r) {
        const float aval = wide[r];
        // A masked-out row of a surviving column: the zero comes from the
        // pruning mask fixed at pack time, not from the data, so the
        // skip pattern is the same every frame.
        if (aval == 0.0f) continue;  // ocb-lint: allow(zero-skip)
        float* crow = cpanel + r * ldc;
        for (std::size_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
      }
    }
    if (epilogue.active()) {
      for (std::size_t r = 0; r < mr; ++r)
        epilogue_row_scalar(
            cpanel + r * ldc, n,
            epilogue.bias != nullptr ? epilogue.bias[i0 + r] : 0.0f,
            epilogue.act);
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

/// The kernel `config` selects for these panels (recording its level):
/// fp16-stored values need F16C on the AVX2 path as well.
detail::PackedKernel<PackedHalfA> half_kernel(
    const PackedHalfA& a, const GemmConfig& config) noexcept {
  return detail::pick_kernel(
      detail::use_simd(config) && detail::half_simd_ok(a.format()),
      detail::gemm_half_avx2, detail::gemm_half_scalar);
}

detail::PackedKernel<PackedSparseA> sparse_kernel(
    const PackedSparseA& a, const GemmConfig& config) noexcept {
  return detail::pick_kernel(
      detail::use_simd(config) &&
          (!a.half() || detail::half_simd_ok(a.format())),
      detail::gemm_sparse_avx2, detail::gemm_sparse_scalar);
}

// Shared k==0 / empty-matrix edge: C is the epilogue of a zero GEMM.
bool gemm_edge(float* c, std::size_t m, std::size_t k, std::size_t n,
               bool accumulate, const GemmEpilogue& epilogue) {
  if (m == 0 || n == 0) return true;
  OCB_CHECK_MSG(!(epilogue.active() && accumulate),
                "fused epilogue requires accumulate == false");
  if (k != 0) return false;
  if (!accumulate) std::memset(c, 0, m * n * sizeof(float));
  if (epilogue.active())
    for (std::size_t i = 0; i < m; ++i)
      detail::epilogue_row_scalar(
          c + i * n, n, epilogue.bias != nullptr ? epilogue.bias[i] : 0.0f,
          epilogue.act);
  return true;
}

}  // namespace

void gemm_packed_half(const PackedHalfA& a, const float* b, float* c,
                      std::size_t n, bool accumulate,
                      const GemmEpilogue& epilogue, const GemmConfig& config) {
  if (gemm_edge(c, a.rows(), a.cols(), n, accumulate, epilogue)) return;
  half_kernel(a, config)(a, b, n, c, n, n, accumulate, epilogue,
                         config.parallel);
}

void gemm_packed_sparse(const PackedSparseA& a, const float* b, float* c,
                        std::size_t n, bool accumulate,
                        const GemmEpilogue& epilogue,
                        const GemmConfig& config) {
  if (gemm_edge(c, a.rows(), a.cols(), n, accumulate, epilogue)) return;
  sparse_kernel(a, config)(a, b, n, c, n, n, accumulate, epilogue,
                           config.parallel);
}

// The compressed kernels' write-back knows only kStore: the residual
// epilogue modes are a dense-panel feature (nn/fusion.hpp never folds
// an add into a compressed-storage conv).

void gemm_packed_im2col(const PackedHalfA& a, const Im2colPanelPacker& packer,
                        float* c, std::size_t out_stride, float* scratch,
                        const GemmEpilogue& epilogue,
                        const GemmConfig& config) {
  OCB_CHECK_MSG(epilogue.mode == EpiMode::kStore,
                "half-stored panels support EpiMode::kStore only");
  detail::im2col_stripes(a, half_kernel(a, config), packer, c, out_stride,
                         scratch, epilogue, config.parallel);
}

void gemm_packed_im2col(const PackedSparseA& a,
                        const Im2colPanelPacker& packer, float* c,
                        std::size_t out_stride, float* scratch,
                        const GemmEpilogue& epilogue,
                        const GemmConfig& config) {
  OCB_CHECK_MSG(epilogue.mode == EpiMode::kStore,
                "sparse panels support EpiMode::kStore only");
  detail::im2col_stripes(a, sparse_kernel(a, config), packer, c, out_stride,
                         scratch, epilogue, config.parallel);
}

}  // namespace ocb
