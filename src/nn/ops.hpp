// Kernel implementations for the inference engine.
//
// Buffers are contiguous CHW float32 images; the Engine drives these
// per node, batched ops taking `batch` images a fixed stride apart.
// Convolution lowers onto the packed GEMM with the bias + activation
// epilogue fused into its write-back; the other ops are direct row loops
// spread over the pool (they are bandwidth-bound and simple).
//
// The engine's convs run on weight panels it packed at load time: the
// im2col stripes (conv2d_fused, any weight storage), the direct 1×1
// GEMM or Winograd, as the planner chose. The pointer-weight conv2d
// packs per call and materializes its column matrix — a one-shot form
// for tests and the training path, never the frame path.
#pragma once

#include <vector>

#include "core/error.hpp"
#include "nn/layer.hpp"
#include "tensor/arena.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/sgemm_sparse.hpp"

namespace ocb::nn {

/// Scratch space reused across conv invocations; the arena is reserved
/// once from the engine's dry-run plan so a conv's stripe panels cost
/// a pointer bump per layer instead of an allocator round-trip.
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

namespace detail {
/// The fused-epilogue GEMM over any packed-weight format, so the
/// drivers below are written once for every WeightStorage.
inline void gemm_any(const PackedA& w, const float* b, float* c,
                     std::size_t n, const GemmEpilogue& epi) {
  gemm_packed(w, b, c, n, /*accumulate=*/false, epi);
}
inline void gemm_any(const PackedHalfA& w, const float* b, float* c,
                     std::size_t n, const GemmEpilogue& epi) {
  gemm_packed_half(w, b, c, n, /*accumulate=*/false, epi);
}
inline void gemm_any(const PackedSparseA& w, const float* b, float* c,
                     std::size_t n, const GemmEpilogue& epi) {
  gemm_packed_sparse(w, b, c, n, /*accumulate=*/false, epi);
}
}  // namespace detail

// The packed-weight convs and linear take any weight format — PackedA,
// PackedHalfA or PackedSparseA (the engine dispatches on
// ConvPlan::storage). Images are `in_stride` / `out_stride` floats
// apart. `mode` fuses a residual add into the GEMM epilogue: output is
// preloaded with (or aliased onto) the residual and combined per
// EpiMode — dense panels only; the compressed kernels run kStore.

/// 1×1 stride-1 pad-0 conv executed directly on the CHW input: the
/// input already *is* the [in_c × h·w] column matrix, so the lowering
/// copy (and its scratch) is skipped entirely. Batched images run one
/// GEMM each. The planner picks this when the copy traffic outweighs
/// the widened-GEMM benefit (see nn/planner.hpp).
template <typename Packed>
void conv2d_direct1x1(const float* input, std::size_t in_stride, int batch,
                      const ConvGeometry& geom, const Packed& weight,
                      const float* bias, Act act, float* output,
                      std::size_t out_stride,
                      EpiMode mode = EpiMode::kStore) {
  OCB_CHECK_MSG(geom.kernel_h == 1 && geom.kernel_w == 1 &&
                    geom.stride == 1 && geom.pad == 0,
                "conv2d_direct1x1 needs a 1x1 stride-1 pad-0 conv");
  const GemmEpilogue epi{bias, to_epilogue_act(act), mode};
  for (int b = 0; b < batch; ++b)
    detail::gemm_any(weight, input + static_cast<std::size_t>(b) * in_stride,
                     output + static_cast<std::size_t>(b) * out_stride,
                     geom.col_cols(), epi);
}

/// The im2col conv (ConvAlgo::kIm2colFused), the engine's one im2col
/// lowering: the columns of all `batch` images are packed in stripes
/// straight from the CHW inputs and consumed by the stripe GEMM before
/// the next stripe is packed, so the full column matrix never exists
/// and small maps still share one weight pass per stripe (see
/// gemm_packed_im2col). Scratch use is fused_conv_scratch_floats(geom,
/// out_c, batch) — independent of the output size.
template <typename Packed>
void conv2d_fused(const float* input, std::size_t in_stride, int batch,
                  const ConvGeometry& geom, const Packed& weight,
                  const float* bias, Act act, float* output,
                  std::size_t out_stride, ConvScratch& scratch,
                  EpiMode mode = EpiMode::kStore) {
  OCB_CHECK_MSG(batch >= 1, "conv2d_fused needs at least one image");
  scratch.arena.reset();
  float* panels = scratch.arena.alloc_floats(
      fused_conv_scratch_floats(geom, weight.rows(), batch));
  const Im2colPanelPacker packer(input, geom, batch, in_stride);
  gemm_packed_im2col(weight, packer, output, out_stride, panels,
                     GemmEpilogue{bias, to_epilogue_act(act), mode});
}

/// Winograd F(2×2,3×3) conv (kernel 3, stride 1 only) over weight
/// panels pre-transformed by winograd::pack_weights. The batch's tile
/// rows, indexed image-major (g = b·tiles_h + ty), run in
/// winograd::block_count blocks that may span images: each block
/// input-transforms its rows into a slot-local V, runs the 16 pointwise
/// GEMMs into M and inverse-transforms straight into the output, with
/// bias, activation and `mode` fused. V and M never exceed a block, so
/// they stay in L2 (winograd.hpp has the layout). Blocks run in waves
/// over the pool like the im2col stripes; when too few blocks fill a
/// wave, each block fans its transforms and GEMMs out instead. Scratch
/// use is winograd::scratch_floats(geom, out_c, batch).
void conv2d_winograd(const float* input, std::size_t in_stride, int batch,
                     const ConvGeometry& geom,
                     const std::vector<PackedA>& u_panels, const float* bias,
                     Act act, float* output, std::size_t out_stride,
                     ConvScratch& scratch, EpiMode mode = EpiMode::kStore);

// The non-GEMM ops below take `batch` images `in_stride` / `out_stride`
// floats apart and split their image × channel planes over the global
// pool (the copies split into blocks), with a work floor so that small
// layers stay on the calling thread. Their row loops are the AVX2 or
// scalar kernels of nn/ops_kernels.hpp; every op but the activations is
// exact, so results do not depend on the path or the split.

/// Depthwise conv: one k×k filter per channel. `weight` is [c × k·k].
/// Bias and activation are fused into the output loop.
void dwconv2d(const float* input, std::size_t in_stride, int batch,
              const ConvGeometry& geom, const float* weight,
              const float* bias, Act act, float* output,
              std::size_t out_stride);

/// dst image b = the first `n` floats of src image b, for b < batch.
void copy_images(const float* src, std::size_t src_stride, int batch,
                 std::size_t n, float* dst, std::size_t dst_stride);

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

/// Interleaves each image of the lowered conv's [4·out_c × (H+1)·(W+1)]
/// result into the deconv's [out_c × 2H × 2W] output. Bias and
/// activation belong to the conv's epilogue (the bias once per phase),
/// so this is a pure copy.
void deconv_interleave(const float* conv, std::size_t conv_stride,
                       int batch, int out_c, int in_h, int in_w,
                       float* output, std::size_t out_stride);

/// Max pool; windows skip padding, and every output is at least
/// numeric_limits<float>::lowest().
void maxpool2d(const float* input, std::size_t in_stride, int batch,
               const ConvGeometry& geom, float* output,
               std::size_t out_stride);

void upsample2x_nearest(const float* input, std::size_t in_stride, int batch,
                        int c, int h, int w, float* output,
                        std::size_t out_stride);

/// Concatenate along channels; `srcs[i]` has `channels[i]` channels and
/// common spatial size h×w. One image.
void concat_channels(const std::vector<const float*>& srcs,
                     const std::vector<int>& channels, int h, int w,
                     float* output);

/// output = act(a + b), in one pass.
void add_elementwise(const float* a, const float* b, std::size_t n,
                     float* output, Act act = Act::kNone);

/// Channels [begin, end) of each h×w image.
void slice_channels(const float* input, std::size_t in_stride, int batch,
                    int h, int w, int begin, int end, float* output,
                    std::size_t out_stride);

void global_avg_pool(const float* input, std::size_t in_stride, int batch,
                     int c, int h, int w, float* output,
                     std::size_t out_stride);

/// output[out] = act(W · flatten(input) + b); weight is [out × in].
void linear(const float* input, std::size_t in_features, int out_features,
            const float* weight, const float* bias, Act act, float* output);

/// linear over packed weight panels with fused epilogue — the n == 1
/// GEMV shape is the bandwidth-bound case half storage exists for.
template <typename Packed>
void linear(const float* input, const Packed& weight, const float* bias,
            Act act, float* output) {
  detail::gemm_any(weight, input, output, /*n=*/1,
                   GemmEpilogue{bias, to_epilogue_act(act)});
}

}  // namespace ocb::nn
