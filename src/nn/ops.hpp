// Kernel implementations for the inference engine.
//
// All buffers are contiguous CHW float32 for a batch of one; the Engine
// drives these per node. Convolution lowers to im2col + GEMM with the
// bias + activation epilogue fused into the GEMM write-back; the other
// ops are direct loops (they are bandwidth-bound and simple).
//
// Two conv entry points: the pointer-weight overload packs the weight
// matrix per call (tests, one-shot users), while the PackedA overload
// consumes a weight panel cached by the Engine at load time — the
// steady-state frame path.
#pragma once

#include <vector>

#include "nn/layer.hpp"
#include "tensor/arena.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/sgemm_sparse.hpp"

namespace ocb::nn {

/// Scratch space reused across conv invocations; the arena is reserved
/// once from the engine's dry-run plan so the im2col buffer costs a
/// pointer bump per layer instead of an allocator round-trip.
struct ConvScratch {
  Arena arena;
};

/// The GEMM-epilogue activation matching `act`.
EpiAct to_epilogue_act(Act act) noexcept;

/// output[out_c × oh × ow] = act(W · im2col(input) + b).
/// `weight` is [out_c × (in_c·k·k)] row-major, `bias` is [out_c].
void conv2d(const float* input, const ConvGeometry& geom, int out_c,
            const float* weight, const float* bias, Act act, float* output,
            ConvScratch& scratch);

/// conv2d over a pre-packed weight matrix (see PackedA) — no per-call
/// packing, fused epilogue, arena-backed im2col.
void conv2d(const float* input, const ConvGeometry& geom,
            const PackedA& weight, const float* bias, Act act, float* output,
            ConvScratch& scratch);

/// Batched conv2d over a pre-packed weight matrix: lowers `batch` CHW
/// images (`in_stride` floats apart) side by side into one
/// [col_rows × batch·col_cols] column matrix, runs a *single* fused
/// GEMM across all columns — the micro-batching hot path, which
/// amortises per-call overhead and fills SIMD column tiles that a
/// small single-image spatial extent leaves short — then scatters the
/// channel-major result back to per-image CHW planes (`out_stride`
/// floats apart). batch == 1 is exactly conv2d.
void conv2d_batched(const float* input, std::size_t in_stride, int batch,
                    const ConvGeometry& geom, const PackedA& weight,
                    const float* bias, Act act, float* output,
                    std::size_t out_stride, ConvScratch& scratch);

/// 1×1 stride-1 pad-0 conv executed directly on the CHW input: the
/// input already *is* the [in_c × h·w] column matrix, so the lowering
/// copy (and its scratch) is skipped entirely. Batched images run one
/// GEMM each. The planner picks this when the copy traffic outweighs
/// the widened-GEMM benefit (see nn/planner.hpp). `mode` fuses a
/// residual add into the GEMM epilogue: output is preloaded with (or
/// aliased onto) the residual and combined per EpiMode.
void conv2d_direct1x1(const float* input, std::size_t in_stride, int batch,
                      const ConvGeometry& geom, const PackedA& weight,
                      const float* bias, Act act, float* output,
                      std::size_t out_stride,
                      EpiMode mode = EpiMode::kStore);

/// Fused im2col-free conv (ConvAlgo::kIm2colFused): column stripes are
/// packed straight from each CHW image and consumed by the stripe GEMM
/// before the next stripe is packed, so the full column matrix never
/// exists (see gemm_packed_im2col). Scratch use is
/// fused_conv_scratch_floats(geom) — independent of the output size.
/// `mode` fuses a residual add exactly as in conv2d_direct1x1.
void conv2d_fused(const float* input, std::size_t in_stride, int batch,
                  const ConvGeometry& geom, const PackedA& weight,
                  const float* bias, Act act, float* output,
                  std::size_t out_stride, ConvScratch& scratch,
                  EpiMode mode = EpiMode::kStore);

/// Compressed-storage variants of the conv GEMM paths: identical
/// lowering, arena use and fused epilogue, but the GEMM reads
/// PackedHalfA (16-bit weights widened in-register) or PackedSparseA
/// (surviving-column panels) instead of dense fp32 panels. The engine
/// dispatches on ConvPlan::storage (see nn/conv_plan.hpp).
void conv2d_batched(const float* input, std::size_t in_stride, int batch,
                    const ConvGeometry& geom, const PackedHalfA& weight,
                    const float* bias, Act act, float* output,
                    std::size_t out_stride, ConvScratch& scratch);
void conv2d_batched(const float* input, std::size_t in_stride, int batch,
                    const ConvGeometry& geom, const PackedSparseA& weight,
                    const float* bias, Act act, float* output,
                    std::size_t out_stride, ConvScratch& scratch);
void conv2d_direct1x1(const float* input, std::size_t in_stride, int batch,
                      const ConvGeometry& geom, const PackedHalfA& weight,
                      const float* bias, Act act, float* output,
                      std::size_t out_stride,
                      EpiMode mode = EpiMode::kStore);
void conv2d_direct1x1(const float* input, std::size_t in_stride, int batch,
                      const ConvGeometry& geom, const PackedSparseA& weight,
                      const float* bias, Act act, float* output,
                      std::size_t out_stride,
                      EpiMode mode = EpiMode::kStore);

/// Winograd F(2×2,3×3) conv (kernel 3, stride 1 only) over weight
/// panels pre-transformed by winograd::pack_weights: per batch, lower
/// all images' tiles side by side, run the 16 pointwise GEMMs, and
/// inverse-transform with bias + activation fused. Layout contracts
/// (ld/col_offset) match conv2d_batched's wide-im2col convention; V
/// and M live in the arena (see winograd::scratch_floats).
void conv2d_winograd(const float* input, std::size_t in_stride, int batch,
                     const ConvGeometry& geom,
                     const std::vector<PackedA>& u_panels, const float* bias,
                     Act act, float* output, std::size_t out_stride,
                     ConvScratch& scratch, EpiMode mode = EpiMode::kStore);

/// Depthwise conv: one k×k filter per channel. `weight` is [c × k·k].
/// Bias and activation are fused into the output loop.
void dwconv2d(const float* input, const ConvGeometry& geom,
              const float* weight, const float* bias, Act act, float* output);

// Transposed conv (kDeconv: kernel 4, stride 2, pad 1 — exact 2×
// upsampling) as a sub-pixel conv (ESPCN, arXiv:1609.05158). Over an
// in_c×H×W input it equals one 2×2 stride-1 pad-1 conv with 4·out_c
// output rows on the (H+1)×(W+1) grid: row p·out_c + o, p = 2·py + px,
// holds output phase (py, px) of channel o, and
// out[o][2y+py][2x+px] = conv[p·out_c+o][y+py][x+px]. The engine plans
// and runs that conv like any other (DESIGN.md §11); these are its two
// ends.

/// Writes the lowered conv's row-major [4·out_c × 4·in_c] weight matrix
/// from a [in_c × out_c × 4 × 4] deconv weight: row p·out_c + o, column
/// (c, ty, tx) holds W[c][o][3−py−2ty][3−px−2tx].
void deconv_phase_weights(const float* weight, int in_c, int out_c,
                          float* phase);

/// Interleaves one image of the lowered conv's [4·out_c × (H+1)·(W+1)]
/// result into the deconv's [out_c × 2H × 2W] output. Bias and
/// activation belong to the conv's epilogue (the bias once per phase),
/// so this is a pure copy.
void deconv_interleave(const float* conv, int out_c, int in_h, int in_w,
                       float* output);

void maxpool2d(const float* input, const ConvGeometry& geom, float* output);

void upsample2x_nearest(const float* input, int c, int h, int w,
                        float* output);

/// Concatenate along channels; `srcs[i]` has `channels[i]` channels and
/// common spatial size h×w.
void concat_channels(const std::vector<const float*>& srcs,
                     const std::vector<int>& channels, int h, int w,
                     float* output);

void add_elementwise(const float* a, const float* b, std::size_t n,
                     float* output);

void slice_channels(const float* input, int c, int h, int w, int begin,
                    int end, float* output);

void global_avg_pool(const float* input, int c, int h, int w, float* output);

/// output[out] = act(W · flatten(input) + b); weight is [out × in].
void linear(const float* input, std::size_t in_features, int out_features,
            const float* weight, const float* bias, Act act, float* output);

/// linear over a pre-packed weight matrix with fused epilogue.
void linear(const float* input, const PackedA& weight, const float* bias,
            Act act, float* output);

/// linear over compressed weight panels — the n == 1 GEMV shape is the
/// bandwidth-bound case half storage exists for.
void linear(const float* input, const PackedHalfA& weight, const float* bias,
            Act act, float* output);
void linear(const float* input, const PackedSparseA& weight,
            const float* bias, Act act, float* output);

}  // namespace ocb::nn
