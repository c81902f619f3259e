// Structured-sparse and half-precision-storage packed GEMM.
//
// Two compressed weight-panel formats sit next to PackedA (gemm.hpp)
// and run through the same dispatcher/epilogue machinery:
//
//   - PackedHalfA: every weight stored as 16 bits (IEEE fp16 or bf16)
//     and widened to fp32 in-register inside the micro-kernel. Compute
//     is unchanged — this is a *storage* format that halves weight
//     traffic, so it wins exactly on bandwidth-bound shapes (GEMV-like
//     linear layers, tiny-N convs) and is priced that way by the
//     planner (nn/planner.hpp).
//
//   - PackedSparseA: magnitude-pruned weights (nn/prune.hpp) packed so
//     only surviving k-columns of each 6-row panel are stored, as a
//     (k-index, 6 values) list. The micro-kernel iterates that list —
//     pruned columns cost neither the B loads nor the FMAs, so the
//     inner loop shrinks by the layer's density. Values may themselves
//     be stored half-width (kSparseHalf in the planner's terms).
//
// Both kernels fuse the same bias+activation epilogue as the dense
// path and honour the same dispatch rules (simd::active(), GemmPath).
// The AVX2 side lives in sgemm_sparse_avx2.cpp — the single additional
// extended-ISA TU (compiled with -mavx2 -mfma, plus -mf16c where the
// toolchain has it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/gemm.hpp"

namespace ocb {

/// 16-bit storage encodings for PackedHalfA / PackedSparseA values.
/// kFp16 keeps 10 mantissa bits (F16C widens it in one instruction);
/// kBf16 keeps fp32's exponent range and widens with a plain shift, so
/// it stays cheap even without F16C hardware.
enum class HalfFormat : std::uint8_t { kFp16, kBf16 };

const char* half_format_name(HalfFormat format) noexcept;

/// Scalar conversions, round-to-nearest-even — bit-identical to what
/// the F16C/VCVTPH2PS hardware produces, so panels packed by the
/// scalar code widen to the same fp32 values on every path.
std::uint16_t float_to_half_bits(float value, HalfFormat format) noexcept;
float half_bits_to_float(std::uint16_t bits, HalfFormat format) noexcept;

/// A-matrix packed like PackedA (tile-major kRowTile-row panels,
/// zero-padded final panel) but with every element stored as 16 bits.
/// Layout per panel: `panel[k·kRowTile + r]`, same as PackedA. The
/// buffer carries a two-element tail pad so the AVX2 kernel can load a
/// full 128-bit group at the last column of the last panel.
class PackedHalfA {
 public:
  static constexpr std::size_t kRowTile = PackedA::kRowTile;

  PackedHalfA() = default;

  /// (Re)pack a row-major M×K fp32 matrix, rounding each weight to
  /// `format`. Reuses storage when shapes match.
  void pack(const float* a, std::size_t m, std::size_t k, HalfFormat format);

  std::size_t rows() const noexcept { return m_; }
  std::size_t cols() const noexcept { return k_; }
  bool empty() const noexcept { return m_ == 0; }
  HalfFormat format() const noexcept { return format_; }
  std::size_t panel_count() const noexcept {
    return (m_ + kRowTile - 1) / kRowTile;
  }
  const std::uint16_t* panel(std::size_t p) const noexcept {
    return data_.data() + p * kRowTile * k_;
  }
  /// Bytes the kernel actually streams per pass (excludes the pad).
  std::size_t stored_bytes() const noexcept {
    return panel_count() * kRowTile * k_ * sizeof(std::uint16_t);
  }
  /// Widen the packed panels back to a row-major M×K fp32 matrix (the
  /// values the kernel computes with). Test/telemetry oracle.
  void unpack_dense(float* out) const;

  /// Mutable buffer access for fault injection; writes bypass pack
  /// tracking (silent corruption, detected by the checksum layer).
  std::uint16_t* mutable_data() noexcept { return data_.data(); }
  /// CRC32 over the packed 16-bit payload (heap-free).
  std::uint32_t checksum() const noexcept;

 private:
  std::vector<std::uint16_t> data_;
  std::size_t m_ = 0, k_ = 0;
  HalfFormat format_ = HalfFormat::kFp16;
};

/// A-matrix packed panel-sparse: per kRowTile-row panel, only the
/// k-columns where the pruning mask keeps at least one of the panel's
/// rows are stored, as a sorted k-index list plus kRowTile masked
/// values per surviving column. Masks produced per row-tile (see
/// nn/prune.hpp SparsityGranularity::kPerTile) make every row of a
/// panel share its surviving set, so stored density equals mask
/// density and the kernel skips exactly the pruned fraction; per-row
/// masks still pack correctly but their per-panel union keeps more
/// columns than the mask density suggests.
class PackedSparseA {
 public:
  static constexpr std::size_t kRowTile = PackedA::kRowTile;

  PackedSparseA() = default;

  /// (Re)pack a row-major M×K fp32 matrix under `mask` (M×K row-major,
  /// nonzero = keep). Masked-out elements of surviving columns are
  /// stored as exact 0.0f, so the kernel's output matches a dense GEMM
  /// over the masked weights bit-for-bit.
  void pack(const float* a, std::size_t m, std::size_t k,
            const std::uint8_t* mask);

  /// Same, but store the surviving values half-width in `format`
  /// (kSparseHalf: sparsity's skipped work plus fp16's halved bytes).
  void pack(const float* a, std::size_t m, std::size_t k,
            const std::uint8_t* mask, HalfFormat format);

  std::size_t rows() const noexcept { return m_; }
  std::size_t cols() const noexcept { return k_; }
  bool empty() const noexcept { return m_ == 0; }
  bool half() const noexcept { return half_; }
  HalfFormat format() const noexcept { return format_; }
  std::size_t panel_count() const noexcept {
    return (m_ + kRowTile - 1) / kRowTile;
  }

  /// Surviving k-columns of panel p.
  std::size_t panel_nnz(std::size_t p) const noexcept {
    return offsets_[p + 1] - offsets_[p];
  }
  /// Their k indices, ascending (length panel_nnz(p)).
  const std::uint32_t* panel_indices(std::size_t p) const noexcept {
    return indices_.data() + offsets_[p];
  }
  /// kRowTile fp32 values per surviving column (fp32 packs only).
  const float* panel_values(std::size_t p) const noexcept {
    return values_.data() + offsets_[p] * kRowTile;
  }
  /// kRowTile 16-bit values per surviving column (half packs only).
  const std::uint16_t* panel_values_half(std::size_t p) const noexcept {
    return values16_.data() + offsets_[p] * kRowTile;
  }

  /// Stored fraction: surviving panel columns over total panel columns
  /// (1.0 for an empty matrix).
  double density() const noexcept;
  /// Bytes the kernel streams per pass: index list + value payload.
  std::size_t stored_bytes() const noexcept;

  /// Reconstruct the row-major M×K dense matrix the kernel computes
  /// with (masked weights, widened from half storage when applicable).
  /// For fp32 packs this reproduces mask∘A bit-exactly. Test oracle —
  /// sparse-plan hot paths must read the packed panels, not this.
  void unpack_masked_dense(float* out) const;

  /// Mutable fp32 value payload (fp32 packs) for fault injection.
  float* mutable_values() noexcept { return values_.data(); }
  /// CRC32 chained over offsets, indices and both value payloads, so a
  /// flipped bit anywhere in the compressed representation is caught.
  std::uint32_t checksum() const noexcept;

 private:
  void build_index(const float* a, std::size_t m, std::size_t k,
                   const std::uint8_t* mask);

  std::vector<std::uint32_t> offsets_;  ///< panel p owns [offsets_[p], offsets_[p+1])
  std::vector<std::uint32_t> indices_;
  std::vector<float> values_;
  std::vector<std::uint16_t> values16_;  ///< + 2-element tail pad
  std::size_t m_ = 0, k_ = 0;
  bool half_ = false;
  HalfFormat format_ = HalfFormat::kFp16;
};

/// C = widen(A)·B over half-stored panels; same semantics and epilogue
/// rules as gemm_packed (accumulate requires an inactive epilogue).
void gemm_packed_half(const PackedHalfA& a, const float* b, float* c,
                      std::size_t n, bool accumulate = false,
                      const GemmEpilogue& epilogue = {},
                      const GemmConfig& config = {});

/// C = sparse(A)·B, skipping pruned panel columns in the inner loop.
void gemm_packed_sparse(const PackedSparseA& a, const float* b, float* c,
                        std::size_t n, bool accumulate = false,
                        const GemmEpilogue& epilogue = {},
                        const GemmConfig& config = {});

/// The im2col-free conv GEMM (gemm.hpp) over half-stored or sparse
/// weight panels: the same batch-spanning stripes, with each stripe
/// multiplied by the compressed kernel. EpiMode::kStore only.
void gemm_packed_im2col(const PackedHalfA& a, const Im2colPanelPacker& packer,
                        float* c, std::size_t out_stride, float* scratch,
                        const GemmEpilogue& epilogue = {},
                        const GemmConfig& config = {});
void gemm_packed_im2col(const PackedSparseA& a,
                        const Im2colPanelPacker& packer, float* c,
                        std::size_t out_stride, float* scratch,
                        const GemmEpilogue& epilogue = {},
                        const GemmConfig& config = {});

}  // namespace ocb
