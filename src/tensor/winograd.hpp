// Winograd F(2×2, 3×3) convolution transforms.
//
// A 3×3 stride-1 convolution over a 2×2 output tile needs 36 MACs the
// direct way; Winograd's minimal-filtering form needs 16 — a 2.25×
// multiply reduction. Each 2×2 output tile is computed from a 4×4
// input tile through three dense 4×4 transforms:
//
//   U = G g Gᵀ          (weights, once per layer at pack time)
//   V = Bᵀ d B          (input tiles, per frame)
//   Y = Aᵀ (U ⊙ V) A    (inverse transform, per frame)
//
// The element-wise product over channels is what makes this fast in
// practice: gathering tile element xi of every (channel, tile) pair
// into a matrix turns the whole layer into 16 independent GEMMs of
// [out_c × in_c] · [in_c × tiles], which reuse the packed-panel GEMM
// (see gemm.hpp). This file provides the three transforms plus the
// panel packer; the conv driver that strings them together lives in
// nn/ops.cpp (conv2d_winograd) and the planner decides when the
// transform overhead is worth paying (see nn/planner.hpp).
//
// Layout contract (mirrors the im2col stripes' batch-spanning
// columns): the transformed-input buffer `v` holds 16 row-major
// [in_c × ld] matrices back to back (matrix xi starts at v + xi·in_c·ld)
// and the product buffer `m` 16 [out_c × ld] matrices. A transform call
// covers tile rows [ty0, ty1) of one image; tile (ty, tx) maps to
// column col_offset + (ty − ty0)·tiles_w + tx. conv2d_winograd never
// materializes a whole image: it walks the batch's tile rows
// image-major (global row g = b·tiles_h + ty) in block_count blocks,
// and one block's V and M — ld = the block's columns, an image
// boundary just another col_offset — stay L2-resident from the input
// transform through the 16 GEMMs to the inverse transform.
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"

namespace ocb::winograd {

/// Side of the square input tile (and of every transform matrix).
inline constexpr int kTileIn = 4;
/// Side of the square output tile each input tile produces.
inline constexpr int kTileOut = 2;
/// Tile elements == number of pointwise GEMMs per convolution.
inline constexpr int kTileElems = kTileIn * kTileIn;

/// True iff this geometry can run through F(2×2,3×3): 3×3 kernel,
/// stride 1 (any padding; border tiles gather zeros).
inline bool applicable(const ConvGeometry& geom) noexcept {
  return geom.kernel_h == 3 && geom.kernel_w == 3 && geom.stride == 1;
}

/// 2×2-output tile grid covering an out_h×out_w plane (edge tiles may
/// hang over by one row/column; the inverse transform clips them).
inline int tiles_h(const ConvGeometry& geom) noexcept {
  return (geom.out_h() + kTileOut - 1) / kTileOut;
}
inline int tiles_w(const ConvGeometry& geom) noexcept {
  return (geom.out_w() + kTileOut - 1) / kTileOut;
}
inline std::size_t tile_count(const ConvGeometry& geom) noexcept {
  return static_cast<std::size_t>(tiles_h(geom)) * tiles_w(geom);
}

/// L2 budget for one block's V + M (16·(in_c + out_c) floats per
/// tile column) and the column floor under it. Every block re-reads
/// the 16 weight panels U: while U fits the budget that re-read stays
/// in cache, but a larger U (a deep layer) streams from memory once
/// per block, so such layers never split below the floor.
inline constexpr std::size_t kBlockBudgetBytes = std::size_t{1} << 20;
inline constexpr std::size_t kBlockMinCols = 128;

/// Number of blocks conv2d_winograd splits `batch` images' tile rows
/// (global row g = b·tiles_h + ty) into; block s covers rows
/// [s·R/n, (s+1)·R/n) of the R = batch·tiles_h. The budget sets the
/// block height (at least one tile row; kBlockMinCols columns when U
/// exceeds the budget); when U fits it, there are at least as many
/// blocks as pool executors, so the blocks' waves occupy the pool; a
/// count that fills waves is rounded up to whole waves.
std::size_t block_count(const ConvGeometry& geom, int out_c,
                        int batch) noexcept;

/// Floats of one wave slot for `batch` images: the V and M of the
/// tallest block.
std::size_t block_slot_floats(const ConvGeometry& geom, int out_c,
                              int batch) noexcept;

/// Floats of scratch conv2d_winograd needs for up to `batch` images:
/// fused_panel_buffers(block_count) slots. The maximum over
/// every batch in [1, batch], so the engine's reservation for its
/// max_batch covers every smaller batch.
std::size_t scratch_floats(const ConvGeometry& geom, int out_c,
                           int batch) noexcept;

/// Transform a [out_c × in_c × 3 × 3] weight tensor into the 16
/// row-major [out_c × in_c] matrices U: element xi of filter (k, c)
/// lands at u[xi·out_c·in_c + k·in_c + c]. `u` must hold
/// 16·out_c·in_c floats.
void transform_weights(const float* weight, int out_c, int in_c, float* u);

/// transform_weights followed by per-matrix panel packing: `panels`
/// ends up with 16 PackedA entries, one per tile element, ready for
/// conv2d_winograd. Pack once per layer, reuse every frame.
void pack_weights(const float* weight, int out_c, int in_c,
                  std::vector<PackedA>& panels);

/// Lower tile rows [ty0, ty1) of one CHW image into the
/// transformed-input buffer `v` (layout above). Tiles that touch the
/// padded border gather zeros, exactly matching im2col's zero padding.
void transform_input(const float* image, const ConvGeometry& geom, float* v,
                     std::size_t ld, std::size_t col_offset, int ty0,
                     int ty1);

/// Inverse-transform tile rows [ty0, ty1) of the 16 [out_c × ld]
/// product matrices `m` (layout above) into output rows
/// [2·ty0, min(2·ty1, out_h)) of one image's CHW output plane, fusing
/// the bias add and activation (the GEMMs must therefore run with an
/// empty epilogue). Odd out_h/out_w edge tiles are clipped. `mode`
/// combines the result with the existing output exactly as the GEMM
/// epilogue (residual fusion preloads `output`).
void transform_output(const float* m, std::size_t ld, std::size_t col_offset,
                      const ConvGeometry& geom, int out_c, const float* bias,
                      EpiAct act, EpiMode mode, float* output, int ty0,
                      int ty1);

}  // namespace ocb::winograd
