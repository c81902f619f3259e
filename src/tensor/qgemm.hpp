// Quantized (u8 × s8 → i32) GEMM with packed weight panels, fused
// requantize epilogue and the same runtime dispatch as the FP32 layer.
//
// C[M×N] = dequant(Wq[M×K] · Aq[K×N]) where Wq is per-output-channel
// symmetric int8 (weights) and Aq is per-tensor affine u8 (activations)
// restricted to [0, 127]. The 7-bit activation range is the standard
// AVX2 convention (oneDNN does the same on machines without VNNI): the
// kernel's `vpmaddubsw` instruction computes u8·s8 pairs with *signed
// 16-bit saturation*, and 127·127 + 127·127 = 32258 < 2^15 means the
// restricted range can never saturate, for any weights and inputs.
//
// Layouts:
//   - Weights are packed once per layer into PackedQuantA panels:
//     kRowTile rows interleaved k-quad-major, so the AVX2 kernel loads
//     one 4-byte weight quad per broadcast (`_mm256_set1_epi32`).
//   - Activations are consumed in "quad" layout: ceil(K/4) quad rows,
//     each row holding N columns × 4 consecutive-k bytes. This is what
//     `vpmaddubsw`+`vpmaddwd` reduce to one i32 lane per column, and
//     the conv path packs it stripe by stripe straight from the u8
//     image (Im2colQuadPanelPacker, im2col.hpp).
//
// The fused epilogue turns the i32 accumulator into
//   act((acc − zp_a·Σw_row) · (scale_a·scale_w[row]) + bias[row])
// and writes either dequantized float (graph outputs, mixed consumers)
// or requantized u8 (mid-graph conv→conv chains). See DESIGN.md §8.
#pragma once

#include <cstdint>

#include "tensor/gemm.hpp"

namespace ocb {

/// Weight matrix repacked into int8 tile-major row panels, k padded to
/// a multiple of kQuadK with zero weight bytes (a zero weight makes the
/// activation padding byte irrelevant). Pack once per layer.
class PackedQuantA {
 public:
  static constexpr std::size_t kRowTile = 6;  ///< MR, mirrors PackedA
  static constexpr std::size_t kQuadK = 4;    ///< k values per i32 lane

  PackedQuantA() = default;

  /// (Re)pack a row-major M×K int8 matrix. Reuses storage when shapes
  /// match.
  void pack(const std::int8_t* a, std::size_t m, std::size_t k);

  std::size_t rows() const noexcept { return m_; }
  std::size_t cols() const noexcept { return k_; }
  bool empty() const noexcept { return m_ == 0; }
  std::size_t quad_count() const noexcept {
    return (k_ + kQuadK - 1) / kQuadK;
  }
  std::size_t panel_count() const noexcept {
    return (m_ + kRowTile - 1) / kRowTile;
  }
  /// Panel p: quad-major, 4 bytes per (quad, row): the weight quad of
  /// row r at quad q lives at panel(p) + (q·kRowTile + r)·kQuadK.
  const std::int8_t* panel(std::size_t p) const noexcept {
    return data_.data() + p * kRowTile * quad_count() * kQuadK;
  }

 private:
  std::vector<std::int8_t> data_;
  std::size_t m_ = 0, k_ = 0;
};

/// Bytes of activation quad buffer a K×N quantized GEMM consumes
/// (ceil(K/4) quad rows × N columns × 4 bytes).
inline std::size_t quad_buffer_bytes(std::size_t k, std::size_t n) noexcept {
  return (k + PackedQuantA::kQuadK - 1) / PackedQuantA::kQuadK *
         PackedQuantA::kQuadK * n;
}

/// Repack a row-major K×N u8 matrix into quad layout (tests and
/// one-shot callers; the conv path packs stripes with
/// Im2colQuadPanelPacker instead).
/// `out` must hold quad_buffer_bytes(k, n); k-padding bytes are zeroed.
void pack_u8_quads(const std::uint8_t* b, std::size_t k, std::size_t n,
                   std::uint8_t* out);

/// Fused requantize epilogue. All row-indexed arrays have length M.
struct QGemmEpilogue {
  /// Per-row dequantize scale: scale_act · scale_weight[row]. Required.
  const float* scale = nullptr;
  /// Per-row zero-point correction zp_act · Σ_k Wq[row][k]; subtracted
  /// from the raw accumulator. Null when the activation zero-point is 0.
  const std::int32_t* row_offset = nullptr;
  const float* bias = nullptr;  ///< float bias, added after dequantize
  EpiAct act = EpiAct::kNone;
};

struct QGemmConfig {
  bool parallel = true;
  GemmPath path = GemmPath::kAuto;
};

/// C (float, M×N) = act(dequant(Wq·Aq) + bias). `b_quads` is the
/// activation matrix in quad layout.
void qgemm_packed(const PackedQuantA& a, const std::uint8_t* b_quads,
                  float* c, std::size_t n, const QGemmEpilogue& epilogue,
                  const QGemmConfig& config = {});

/// As qgemm_packed but requantizing the activated result to u8 with
/// `out_scale`/`out_zp` (clamped to [0, 127]) — the mid-graph path.
void qgemm_packed_u8(const PackedQuantA& a, const std::uint8_t* b_quads,
                     std::uint8_t* c, std::size_t n, float out_scale,
                     std::int32_t out_zp, const QGemmEpilogue& epilogue,
                     const QGemmConfig& config = {});

/// Reference i32 accumulation over row-major operands (tests): a is
/// M×K int8 row-major, b is K×N u8 row-major.
void qgemm_naive_i32(const std::int8_t* a, const std::uint8_t* b,
                     std::int32_t* c, std::size_t m, std::size_t k,
                     std::size_t n);

// ---------------------------------------------------------------------------
// Fused im2col-free INT8 conv GEMM: the quantized twin of
// gemm_packed_im2col (gemm.hpp). Activation quad stripes are packed
// straight from the u8 image by an Im2colQuadPanelPacker and consumed
// before the next stripe is packed — the full quad buffer is never
// materialized.
// ---------------------------------------------------------------------------

/// Scratch bytes the fused INT8 conv GEMM needs for one image of
/// `geom` (stripe buffers of the activation quad layout).
std::size_t fused_qconv_scratch_bytes(const ConvGeometry& geom) noexcept;

/// C (float, M × ldc window) = act(dequant(Wq · im2col(image)) + bias)
/// without materializing the quad buffer. `panels` must hold
/// fused_qconv_scratch_bytes of the packer's geometry.
void qgemm_packed_im2col(const PackedQuantA& a,
                         const Im2colQuadPanelPacker& packer, float* c,
                         std::size_t ldc, std::uint8_t* panels,
                         const QGemmEpilogue& epilogue,
                         const QGemmConfig& config = {});

/// As qgemm_packed_im2col but requantizing to u8 (mid-graph path).
void qgemm_packed_im2col_u8(const PackedQuantA& a,
                            const Im2colQuadPanelPacker& packer,
                            std::uint8_t* c, std::size_t ldc,
                            float out_scale, std::int32_t out_zp,
                            std::uint8_t* panels,
                            const QGemmEpilogue& epilogue,
                            const QGemmConfig& config = {});

}  // namespace ocb
