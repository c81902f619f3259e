// Winograd F(m×m, 3×3) convolution transforms, m ∈ {2, 4}.
//
// A 3×3 stride-1 convolution over an m×m output tile needs 9·m² MACs
// the direct way; Winograd's minimal-filtering form needs (m+2)²: 16
// per 4 outputs for F(2×2, 3×3) (2.25× fewer), 36 per 16 outputs for
// F(4×4, 3×3) (4× fewer; Lavin & Gray, arXiv:1509.09308). Each output
// tile is computed from an α×α input tile, α = m + 2, through three
// dense transforms:
//
//   U = G g Gᵀ          (weights, once per layer at pack time)
//   V = Bᵀ d B          (input tiles, per frame)
//   Y = Aᵀ (U ⊙ V) A    (inverse transform, per frame)
//
// F(2×2) interpolates at {0, 1, −1, ∞}. F(4×4) uses {0, −1, 1, ½, −2, ∞}
// rather than Lavin's {0, ±1, ±2, ∞}: its fp32 error is about 2.5×
// lower (Barabasz et al., arXiv:1803.10986), every B and A constant is
// dyadic (exact in fp32), and G's 1/3 and 1/15 only appear at pack
// time, where U is computed in double and rounded once.
//
// The element-wise product over channels is what makes this fast in
// practice: gathering tile element xi of every (channel, tile) pair
// into a matrix turns the whole layer into α² independent GEMMs of
// [out_c × in_c] · [in_c × tiles], which reuse the packed-panel GEMM
// (see gemm.hpp). F(4×4) halves the GEMM work per output against
// F(2×2) (36/16 vs 16/4) but its tiles are 4× coarser, so on small
// maps the GEMMs narrow and the edge tiles waste more; the planner
// picks the tile per node (ConvPlan::wino_tile, see nn/planner.hpp).
// This file provides the three transforms plus the panel packer; the
// conv driver that strings them together lives in nn/ops.cpp
// (conv2d_winograd).
//
// Layout contract (mirrors the im2col stripes' batch-spanning
// columns): the transformed-input buffer `v` holds α² row-major
// [in_c × ld] matrices back to back (matrix xi starts at v + xi·in_c·ld)
// and the product buffer `m` α² [out_c × ld] matrices. A transform call
// covers tile rows [ty0, ty1) of one image; tile (ty, tx) maps to
// column col_offset + (ty − ty0)·tiles_w + tx. conv2d_winograd never
// materializes a whole image: it walks the batch's tile rows
// image-major (global row g = b·tiles_h + ty) in block_count blocks,
// and one block's V and M — ld = the block's columns, an image
// boundary just another col_offset — stay L2-resident from the input
// transform through the α² GEMMs to the inverse transform.
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"

namespace ocb::winograd {

/// The output tile sides the kernels implement.
inline constexpr int kTiles[] = {2, 4};

/// True iff `tile` is an output tile side the kernels implement.
inline constexpr bool tile_legal(int tile) noexcept {
  return tile == 2 || tile == 4;
}
/// Side α of the square input tile (and of every transform matrix).
inline constexpr int tile_in(int tile) noexcept { return tile + 2; }
/// Tile elements α² == number of pointwise GEMMs (and weight panels).
inline constexpr int tile_elems(int tile) noexcept {
  return tile_in(tile) * tile_in(tile);
}

/// True iff this geometry can run through F(m×m,3×3): 3×3 kernel,
/// stride 1 (any padding; border tiles gather zeros).
inline bool applicable(const ConvGeometry& geom) noexcept {
  return geom.kernel_h == 3 && geom.kernel_w == 3 && geom.stride == 1;
}

/// tile×tile-output grid covering an out_h×out_w plane (edge tiles may
/// hang over; the inverse transform clips them).
inline int tiles_h(const ConvGeometry& geom, int tile) noexcept {
  return (geom.out_h() + tile - 1) / tile;
}
inline int tiles_w(const ConvGeometry& geom, int tile) noexcept {
  return (geom.out_w() + tile - 1) / tile;
}
inline std::size_t tile_count(const ConvGeometry& geom, int tile) noexcept {
  return static_cast<std::size_t>(tiles_h(geom, tile)) * tiles_w(geom, tile);
}

/// L2 budget for one block's V + M (α²·(in_c + out_c) floats per tile
/// column), whatever the tile. Every block re-reads the α² weight
/// panels U. While U stays within kUCachedBytes that re-read is served
/// from cache, and the driver splits at least one block per executor.
/// A larger U (a deep layer) streams from memory once per block, so
/// such layers never split below a floor of kBlockMinElems tile
/// elements per channel — 128 columns of 4×4 tiles, 56 of 6×6 tiles.
/// Stated in elements, the floor holds a floor block's V + M (and so
/// the scratch) at one size for both tiles; a 6×6 floor block covers
/// 896 outputs against 512, so U is re-read about 1.3× as often per
/// output (36/896 vs 16/512 panels per output). kUCachedBytes is 2 MiB
/// rather than the 1 MiB budget because F(4×4)'s U is 2.25× F(2×2)'s:
/// at 1 MiB, a 128→64-channel layer (U 1.2 MB) fell to the floor and
/// ran 2 blocks on 4 executors, 1.8–2.8× slower than split per
/// executor (one-node probes, 4-core AVX2 host with 2 MiB L2 per core).
inline constexpr std::size_t kBlockBudgetBytes = std::size_t{1} << 20;
inline constexpr std::size_t kUCachedBytes = std::size_t{2} << 20;
inline constexpr std::size_t kBlockMinElems = 2048;

/// Number of blocks conv2d_winograd splits `batch` images' tile rows
/// (global row g = b·tiles_h + ty) into; block s covers rows
/// [s·R/n, (s+1)·R/n) of the R = batch·tiles_h. The budget sets the
/// block height (at least one tile row; the kBlockMinElems floor when
/// U exceeds kUCachedBytes); when U is cached, there are at least as many
/// blocks as pool executors, so the blocks' waves occupy the pool; a
/// count that fills waves is rounded up to whole waves.
std::size_t block_count(const ConvGeometry& geom, int out_c, int batch,
                        int tile) noexcept;

/// Floats of one wave slot for `batch` images: the V and M of the
/// tallest block.
std::size_t block_slot_floats(const ConvGeometry& geom, int out_c, int batch,
                              int tile) noexcept;

/// Floats of scratch conv2d_winograd needs for up to `batch` images:
/// fused_panel_buffers(block_count) slots. The maximum over
/// every batch in [1, batch], so the engine's reservation for its
/// max_batch covers every smaller batch.
std::size_t scratch_floats(const ConvGeometry& geom, int out_c, int batch,
                           int tile) noexcept;

/// Transform a [out_c × in_c × 3 × 3] weight tensor into the α²
/// row-major [out_c × in_c] matrices U (in double, rounded once):
/// element xi of filter (k, c) lands at u[xi·out_c·in_c + k·in_c + c].
/// `u` must hold tile_elems(tile)·out_c·in_c floats.
void transform_weights(const float* weight, int out_c, int in_c, int tile,
                       float* u);

/// transform_weights followed by per-matrix panel packing: `panels`
/// ends up with tile_elems(tile) PackedA entries, one per tile element,
/// ready for conv2d_winograd. Pack once per layer, reuse every frame.
void pack_weights(const float* weight, int out_c, int in_c, int tile,
                  std::vector<PackedA>& panels);

/// Lower tile rows [ty0, ty1) of one CHW image into the
/// transformed-input buffer `v` (layout above). Tiles that touch the
/// padded border gather zeros, exactly matching im2col's zero padding.
void transform_input(const float* image, const ConvGeometry& geom, int tile,
                     float* v, std::size_t ld, std::size_t col_offset,
                     int ty0, int ty1);

/// Inverse-transform tile rows [ty0, ty1) of the α² [out_c × ld]
/// product matrices `m` (layout above) into output rows
/// [tile·ty0, min(tile·ty1, out_h)) of one image's CHW output plane,
/// fusing the bias add and activation (the GEMMs must therefore run
/// with an empty epilogue). Edge tiles past out_h/out_w are clipped.
/// `mode` combines the result with the existing output exactly as the
/// GEMM epilogue (residual fusion preloads `output`).
void transform_output(const float* m, std::size_t ld, std::size_t col_offset,
                      const ConvGeometry& geom, int tile, int out_c,
                      const float* bias, EpiAct act, EpiMode mode,
                      float* output, int ty0, int ty1);

}  // namespace ocb::winograd
