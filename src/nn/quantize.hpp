// Post-training quantization for the inference engine.
//
// Scheme (full derivation in DESIGN.md §8):
//   - Activations: per-tensor affine u8 restricted to [0, 127] (the
//     7-bit convention the AVX2 kernel requires; see qgemm.hpp).
//     scale = (max' − min') / 127 with the range widened to include 0,
//     zero_point = clamp(round(−min'/scale), 0, 127) — so real 0 maps
//     exactly onto a representable code (padding, ReLU zeros).
//   - Weights: per-output-channel symmetric int8 in [−127, 127]
//     (−128 excluded to keep the scheme symmetric),
//     scale_w[r] = max|W[r,:]| / 127.
// Ranges come from a calibration pass: run representative frames
// through the FP32 engine and record per-node output min/max.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "nn/ops.hpp"
#include "tensor/im2col.hpp"
#include "tensor/qgemm.hpp"

namespace ocb::nn {

/// Affine u8 quantization parameters for one activation tensor.
/// real = (q − zero_point) · scale, q ∈ [0, 127].
struct TensorQuant {
  float scale = 1.0f;
  std::int32_t zero_point = 0;
};

/// Running min/max observer fed by calibration frames.
struct TensorRange {
  float mn = std::numeric_limits<float>::max();
  float mx = std::numeric_limits<float>::lowest();

  void observe(const float* data, std::size_t n) noexcept;
  bool valid() const noexcept { return mn <= mx; }
};

/// Derive activation quantization parameters from an observed range.
/// The range is widened to include 0 and a degenerate range falls back
/// to scale 1 — quantizing an unseen tensor must not divide by zero.
TensorQuant quant_from_range(float mn, float mx) noexcept;

/// Per-node output ranges recorded over `frames` calibration frames.
struct QuantCalibration {
  std::vector<TensorRange> ranges;  ///< indexed by graph node
  int frames = 0;
};

void quantize_to_u8(const float* src, std::size_t n, const TensorQuant& q,
                    std::uint8_t* dst) noexcept;
void dequantize_u8(const std::uint8_t* src, std::size_t n,
                   const TensorQuant& q, float* dst) noexcept;

/// Everything a conv/linear node needs to execute in INT8: packed int8
/// weight panels plus the fused-epilogue constants.
struct QuantizedLayer {
  PackedQuantA packed;
  std::vector<float> row_scale;          ///< scale_in · scale_w[row]
  std::vector<std::int32_t> row_offset;  ///< zp_in · Σ_k Wq[row][k]
  TensorQuant in_q;   ///< producer's activation quantization
  TensorQuant out_q;  ///< this node's output quantization
  bool emit_u8 = false;  ///< write u8 (mid-graph) instead of float
  EpiAct act = EpiAct::kNone;

  bool valid() const noexcept { return !packed.empty(); }

  QGemmEpilogue epilogue(const float* bias) const noexcept {
    QGemmEpilogue e;
    e.scale = row_scale.data();
    e.row_offset = in_q.zero_point != 0 ? row_offset.data() : nullptr;
    e.bias = bias;
    e.act = act;
    return e;
  }
};

/// Quantize a row-major M×K fp32 weight matrix per output channel and
/// pack it for the INT8 kernel. `in_q` fixes the epilogue constants.
QuantizedLayer quantize_layer(const float* weight, std::size_t m,
                              std::size_t k, const TensorQuant& in_q,
                              const TensorQuant& out_q, EpiAct act);

/// INT8 convolution (ConvAlgo::kIm2colQuantFused) over an
/// already-quantized u8 input image (CHW, quantized with `layer.in_q`).
/// The activation quad layout is packed in stripes straight from the
/// image, never materialized whole; the stripe buffers
/// (fused_qconv_scratch_bytes(geom)) come from `scratch`, which is
/// reset here — mirroring the fp32 conv contract. Exactly one of
/// `out_f32`/`out_u8` is non-null.
void qconv2d(const std::uint8_t* input_q, const ConvGeometry& geom,
             const QuantizedLayer& layer, const float* bias, float* out_f32,
             std::uint8_t* out_u8, ConvScratch& scratch);

/// INT8 linear over an already-quantized u8 input vector of `k`
/// features. Exactly one of `out_f32`/`out_u8` is non-null.
void qlinear(const std::uint8_t* input_q, std::size_t k,
             const QuantizedLayer& layer, const float* bias, float* out_f32,
             std::uint8_t* out_u8, ConvScratch& scratch);

}  // namespace ocb::nn
