#include "nn/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/error.hpp"

namespace ocb::nn {

void TensorRange::observe(const float* data, std::size_t n) noexcept {
  float lo = mn, hi = mx;
  for (std::size_t i = 0; i < n; ++i) {
    lo = std::min(lo, data[i]);
    hi = std::max(hi, data[i]);
  }
  mn = lo;
  mx = hi;
}

TensorQuant quant_from_range(float mn, float mx) noexcept {
  // Widen to include 0 so the zero-point is representable; exact-zero
  // codes matter for spatial padding and post-ReLU activations.
  mn = std::min(mn, 0.0f);
  mx = std::max(mx, 0.0f);
  constexpr float kTinyRange = 1e-8f;
  TensorQuant q;
  if (!(mx - mn > kTinyRange)) return q;  // degenerate/unseen: identity
  q.scale = (mx - mn) / 127.0f;
  const long zp = std::lrintf(-mn / q.scale);
  q.zero_point = static_cast<std::int32_t>(std::clamp(zp, 0l, 127l));
  return q;
}

void quantize_to_u8(const float* src, std::size_t n, const TensorQuant& q,
                    std::uint8_t* dst) noexcept {
  const float inv = 1.0f / q.scale;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t v =
        static_cast<std::int32_t>(std::lrintf(src[i] * inv)) + q.zero_point;
    dst[i] = static_cast<std::uint8_t>(std::clamp(v, 0, 127));
  }
}

void dequantize_u8(const std::uint8_t* src, std::size_t n,
                   const TensorQuant& q, float* dst) noexcept {
  for (std::size_t i = 0; i < n; ++i)
    dst[i] = static_cast<float>(static_cast<std::int32_t>(src[i]) -
                                q.zero_point) *
             q.scale;
}

QuantizedLayer quantize_layer(const float* weight, std::size_t m,
                              std::size_t k, const TensorQuant& in_q,
                              const TensorQuant& out_q, EpiAct act) {
  QuantizedLayer layer;
  layer.in_q = in_q;
  layer.out_q = out_q;
  layer.act = act;
  layer.row_scale.resize(m);
  layer.row_offset.resize(m);

  std::vector<std::int8_t> wq(m * k);
  for (std::size_t r = 0; r < m; ++r) {
    const float* row = weight + r * k;
    float amax = 0.0f;
    for (std::size_t j = 0; j < k; ++j)
      amax = std::max(amax, std::fabs(row[j]));
    // Symmetric per-channel scale; −128 is never produced so the
    // representable range is exactly ±127·scale_w.
    const float sw = amax > 0.0f ? amax / 127.0f : 1.0f;
    const float inv = 1.0f / sw;
    std::int32_t wsum = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const long q = std::lrintf(row[j] * inv);
      const std::int8_t qb =
          static_cast<std::int8_t>(std::clamp(q, -127l, 127l));
      wq[r * k + j] = qb;
      wsum += qb;
    }
    layer.row_scale[r] = in_q.scale * sw;
    layer.row_offset[r] = in_q.zero_point * wsum;
  }
  layer.packed.pack(wq.data(), m, k);
  return layer;
}

void qconv2d(const std::uint8_t* input_q, const ConvGeometry& geom,
             const QuantizedLayer& layer, const float* bias, float* out_f32,
             std::uint8_t* out_u8, ConvScratch& scratch) {
  OCB_CHECK(layer.valid());
  scratch.arena.reset();
  const QGemmEpilogue epi = layer.epilogue(bias);
  auto* panels = static_cast<std::uint8_t*>(
      scratch.arena.alloc(fused_qconv_scratch_bytes(geom)));
  const Im2colQuadPanelPacker packer(
      input_q, geom, static_cast<std::uint8_t>(layer.in_q.zero_point));
  if (out_f32 != nullptr) {
    qgemm_packed_im2col(layer.packed, packer, out_f32, geom.col_cols(),
                        panels, epi);
  } else {
    qgemm_packed_im2col_u8(layer.packed, packer, out_u8, geom.col_cols(),
                           layer.out_q.scale, layer.out_q.zero_point, panels,
                           epi);
  }
}

void qlinear(const std::uint8_t* input_q, std::size_t k,
             const QuantizedLayer& layer, const float* bias, float* out_f32,
             std::uint8_t* out_u8, ConvScratch& scratch) {
  OCB_CHECK(layer.valid());
  scratch.arena.reset();
  // For N = 1 the quad layout degenerates to the input vector padded to
  // a multiple of 4 bytes.
  const std::size_t padded = quad_buffer_bytes(k, 1);
  auto* quads = static_cast<std::uint8_t*>(scratch.arena.alloc(padded));
  std::memcpy(quads, input_q, k);
  std::memset(quads + k, 0, padded - k);
  const QGemmEpilogue epi = layer.epilogue(bias);
  if (out_f32 != nullptr) {
    qgemm_packed(layer.packed, quads, out_f32, 1, epi);
  } else {
    qgemm_packed_u8(layer.packed, quads, out_u8, 1, layer.out_q.scale,
                    layer.out_q.zero_point, epi);
  }
}

}  // namespace ocb::nn
