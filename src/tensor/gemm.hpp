// Single-precision GEMM with packed panels, fused epilogues and
// runtime SIMD dispatch.
//
// C[M×N] (+)= A[M×K] · B[K×N], row-major. Two executions paths sit
// behind one dispatcher (see simd.hpp):
//   - an AVX2/FMA micro-kernel over tile-major packed A panels
//     (tensor/gemm_avx2.cpp, compiled with -mavx2 -mfma only), and
//   - a cache-blocked scalar fallback, bit-stable across machines.
// Convolution lowers onto this through on-the-fly im2col stripes (see
// gemm_packed_im2col and im2col.hpp); the engine pre-packs each layer's
// weight matrix once (PackedA) and fuses bias + activation into the
// GEMM write-back so the conv hot path makes a single pass over C.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/im2col.hpp"
#include "tensor/simd.hpp"

namespace ocb {

/// Which kernel the dispatcher should use.
enum class GemmPath {
  kAuto,    ///< SIMD when compiled in, CPU-supported and not disabled
  kScalar,  ///< force the scalar blocked fallback
  kSimd,    ///< request SIMD; silently falls back if unavailable
};

/// The SIMD level the most recent GEMM dispatch on this thread actually
/// executed (as opposed to what the config requested). Benchmarks
/// record this next to their timings so a silent mis-dispatch — SIMD
/// requested but the scalar fallback taken — shows up as a baseline
/// regression instead of a mystery slowdown.
simd::Level gemm_last_level() noexcept;

struct GemmConfig {
  std::size_t block_m = 64;
  std::size_t block_n = 256;
  std::size_t block_k = 128;
  bool parallel = true;
  GemmPath path = GemmPath::kAuto;
};

/// Activation fused into the GEMM write-back. Mirrors nn::Act without
/// inverting the tensor→nn layering.
enum class EpiAct { kNone, kRelu, kLeakyRelu, kSilu, kSigmoid };

/// Negative-side slope of EpiAct::kLeakyRelu (the MiniYolo detectors
/// train with ag::relu(x, 0.1), and the engine export must match).
inline constexpr float kLeakySlope = 0.1f;

/// How the epilogue combines the freshly computed accumulator with the
/// existing contents of C. The two accumulating modes fuse a residual
/// add into the GEMM write-back so the add never runs as a separate
/// elementwise pass: the caller preloads C with the residual tensor and
/// picks the mode matching where the graph's activation sits.
enum class EpiMode {
  kStore,       ///< C = act(acc + bias) — overwrite (the classic path)
  kAccThenAct,  ///< C = act(C + acc + bias) — add feeds the activation
  kActThenAcc,  ///< C = C + act(acc + bias) — activated conv, raw add
};

/// Fused epilogue applied as C is written back: per-row bias add then
/// activation, combined with C per `mode`. Only valid with
/// accumulate == false — with accumulate the C tile is re-read raw and
/// the activation would compose with already activated values (see
/// DESIGN.md §7); the EpiMode accumulators subsume that use case.
struct GemmEpilogue {
  const float* bias = nullptr;  ///< length M, added to every row i; optional
  EpiAct act = EpiAct::kNone;
  EpiMode mode = EpiMode::kStore;

  bool active() const noexcept {
    return bias != nullptr || act != EpiAct::kNone ||
           mode != EpiMode::kStore;
  }
};

/// A-matrix repacked into tile-major row panels: ceil(M / kRowTile)
/// panels, each storing its rows k-major (`panel[k·kRowTile + r]`) so
/// the micro-kernel broadcasts consecutive floats. Short final panels
/// are zero-padded. Pack once per weight matrix, reuse every frame.
class PackedA {
 public:
  /// Micro-kernel row tile (MR). 6 rows × 16 columns leaves the AVX2
  /// register file a 12-accumulator tile + 2 B loads + 1 broadcast,
  /// exactly filling 15 of 16 ymm registers without spills.
  static constexpr std::size_t kRowTile = 6;

  PackedA() = default;
  PackedA(const float* a, std::size_t m, std::size_t k) { pack(a, m, k); }

  /// (Re)pack a row-major M×K matrix. Reuses storage when shapes match.
  void pack(const float* a, std::size_t m, std::size_t k);

  std::size_t rows() const noexcept { return m_; }
  std::size_t cols() const noexcept { return k_; }
  bool empty() const noexcept { return m_ == 0; }
  std::size_t panel_count() const noexcept {
    return (m_ + kRowTile - 1) / kRowTile;
  }
  /// Pointer to panel p (rows [p·kRowTile, p·kRowTile + kRowTile)).
  const float* panel(std::size_t p) const noexcept {
    return data_.data() + p * kRowTile * k_;
  }

  /// Raw packed buffer (panel-major, zero-padded tail) and its length.
  const float* data() const noexcept { return data_.data(); }
  std::size_t stored_floats() const noexcept { return data_.size(); }
  /// Mutable buffer access for fault injection and tests: writes are
  /// invisible to the engine's pack tracking — exactly the silent
  /// in-memory corruption the checksum layer (DESIGN.md §14) detects.
  float* mutable_data() noexcept { return data_.data(); }
  /// CRC32 over the packed buffer (heap-free; core/crc32.hpp). The
  /// engine records this at pack time and re-verifies it on a cadence.
  std::uint32_t checksum() const noexcept;

 private:
  std::vector<float> data_;
  std::size_t m_ = 0, k_ = 0;
};

/// C = A·B (or C += A·B when accumulate). Dispatches per GemmConfig.
void gemm(const float* a, const float* b, float* c, std::size_t m,
          std::size_t k, std::size_t n, bool accumulate = false,
          const GemmConfig& config = {});

/// gemm with a fused epilogue (bias + activation in the write-back).
/// Requires accumulate == false when the epilogue is active.
void gemm_ex(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n, bool accumulate,
             const GemmEpilogue& epilogue, const GemmConfig& config = {});

/// gemm over a pre-packed A — the frame hot path. M and K come from the
/// packing; B is row-major K×N.
void gemm_packed(const PackedA& a, const float* b, float* c, std::size_t n,
                 bool accumulate = false, const GemmEpilogue& epilogue = {},
                 const GemmConfig& config = {});

/// Reference triple-loop implementation used by tests as the oracle.
void gemm_naive(const float* a, const float* b, float* c, std::size_t m,
                std::size_t k, std::size_t n, bool accumulate = false);

// ---------------------------------------------------------------------------
// Im2col-free convolution GEMM (oneDNN/FBGEMM-style on-the-fly
// packing), the engine's one conv lowering. The K×N column matrix is
// never materialized: the column range — every output pixel of every
// image in the batch — is processed in cache-resident stripes, each
// packed straight from the NCHW images by an Im2colPanelPacker and
// consumed by the stripe GEMM before the next stripe is packed. Bytes
// moved drop from 2·K·N floats (write + read back of the column matrix
// through DRAM) to K·stripe floats resident in L2, and small feature
// maps still run one weight pass per stripe rather than per image.
// ---------------------------------------------------------------------------

/// Stripe width (columns) for a conv with reduction depth k: sized so
/// one K×width panel stays within the L2 budget, clamped to [16, 1024]
/// and rounded to the 16-column register tile.
std::size_t fused_panel_cols(std::size_t k) noexcept;

/// Number of stripe panels packed concurrently (bounded by the global
/// pool size); the driver processes stripes in waves of this many
/// buffers.
std::size_t fused_panel_buffers(std::size_t stripes) noexcept;

/// Scratch floats gemm_packed_im2col needs for `batch` images of
/// `geom` with `rows` output rows: per wave buffer, a K×w panel, plus
/// an M×w staging tile when stripes can span images (batch > 1 and
/// the per-image column count is not a multiple of the stripe width).
/// The engine reserves this in its conv arena at plan time.
std::size_t fused_conv_scratch_floats(const ConvGeometry& geom,
                                      std::size_t rows, int batch) noexcept;

/// For every image b of the packer's batch:
///   C_b[M × image_cols] = act(A · im2col(image_b) + bias)
/// with C_b at c + b·out_stride (row stride image_cols, the CHW plane),
/// without ever materializing the column matrix. A stripe inside one
/// image is written in place; a stripe spanning images is multiplied
/// into a staging tile (preloaded from C under a residual EpiMode) and
/// copied out per image. `scratch` must hold fused_conv_scratch_floats
/// of the packer's geometry, M and batch. Epilogue modes apply as in
/// gemm_packed; the half and sparse overloads (sgemm_sparse.hpp) take
/// EpiMode::kStore only.
void gemm_packed_im2col(const PackedA& a, const Im2colPanelPacker& packer,
                        float* c, std::size_t out_stride, float* scratch,
                        const GemmEpilogue& epilogue = {},
                        const GemmConfig& config = {});

// Scalar reference of the epilogue's fast activations (same exp2-based
// polynomial the AVX2 path vectorises; see gemm_avx2.cpp for the error
// analysis — max relative error vs std::exp ≈ 2 ULP ≈ 2.4e-7).
float fast_exp(float x) noexcept;
float fast_sigmoid(float x) noexcept;
float fast_silu(float x) noexcept;

/// Scalar epilogue activation, shared by the scalar kernels and the
/// SIMD tails (FP32 and INT8 alike). Branch-free, like apply_act256.
inline float apply_epi_act(EpiAct act, float v) noexcept {
  switch (act) {
    case EpiAct::kNone: return v;
    case EpiAct::kRelu: return std::max(v, 0.0f);
    // max(v, slope·v) is the piecewise form for any slope in (0, 1).
    case EpiAct::kLeakyRelu: return std::max(v, kLeakySlope * v);
    case EpiAct::kSilu: return fast_silu(v);
    case EpiAct::kSigmoid: return fast_sigmoid(v);
  }
  return v;
}

}  // namespace ocb
