// Internal contract between the GEMM dispatcher (gemm.cpp) and the
// AVX2 translation unit (gemm_avx2.cpp). Not installed as public API.
//
// Both kernels consume the same PackedA panel layout, so a matrix
// packed once is valid whichever path the dispatcher picks (the
// OCB_DISABLE_SIMD override can flip mid-process without repacking).
// The im2col stripe driver shared by every weight format lives here
// too.
#pragma once

#include <algorithm>
#include <cstddef>

#include "core/error.hpp"
#include "parallel/parallel_for.hpp"
#include "tensor/fault_hook.hpp"
#include "tensor/gemm.hpp"

namespace ocb::detail {

/// A packed-panel kernel: the C window (M rows of stride ldc) (+)=
/// A · B, B a window of n columns with row stride ldb, epilogue fused
/// into the write-back. The classic call passes ldb == ldc == n; the
/// im2col stripe driver a packed panel and the output's row stride.
/// Every weight format has an AVX2 and a scalar kernel of this shape.
template <typename Packed>
using PackedKernel = void (*)(const Packed& a, const float* b,
                              std::size_t ldb, float* c, std::size_t ldc,
                              std::size_t n, bool accumulate,
                              const GemmEpilogue& epilogue, bool parallel);

/// AVX2/FMA dense kernel over PackedA panels. Defined in
/// gemm_avx2.cpp; must only be called when simd::active() ==
/// Level::kAvx2.
void gemm_packed_avx2(const PackedA& a, const float* b, std::size_t ldb,
                      float* c, std::size_t ldc, std::size_t n,
                      bool accumulate, const GemmEpilogue& epilogue,
                      bool parallel);

/// Scalar dense kernel with the identical traversal and epilogue
/// semantics — the fallback and the oracle for the AVX2 path.
void gemm_packed_scalar(const PackedA& a, const float* b, std::size_t ldb,
                        float* c, std::size_t ldc, std::size_t n,
                        bool accumulate, const GemmEpilogue& epilogue,
                        bool parallel);

/// Apply `epilogue` to row i of C (scalar; used for k == 0 edge cases
/// and the scalar blocked path).
void epilogue_row_scalar(float* row, std::size_t n, float bias, EpiAct act);

/// Record the level a dispatcher picked (see gemm_last_level()). Also
/// written by the INT8 dispatcher in qgemm.cpp.
void record_dispatch_level(simd::Level level) noexcept;

/// Whether `config` routes to the AVX2 kernels on this host.
bool use_simd(const GemmConfig& config) noexcept;

/// Records the level `simd` selects (see gemm_last_level()) and returns
/// that level's kernel.
template <typename Packed>
PackedKernel<Packed> pick_kernel(bool simd, PackedKernel<Packed> avx2,
                                 PackedKernel<Packed> scalar) noexcept {
  record_dispatch_level(simd ? simd::Level::kAvx2 : simd::Level::kScalar);
  return simd ? avx2 : scalar;
}

/// Floats of one wave slot of the im2col stripe driver: the K×w
/// packed panel, plus an M×w staging tile when a stripe can span
/// images (fused_conv_scratch_floats is this times the wave width).
std::size_t stripe_slot_floats(std::size_t k, std::size_t m,
                               std::size_t image_cols, int batch) noexcept;

/// The stripe schedule of both im2col drivers (fp32 and INT8): calls
/// run_stripe(s, slot, inner_parallel) once for every stripe s in
/// [0, stripes). With `parallel` and enough stripes to occupy every
/// executor, waves of `bufs` stripes pack and multiply concurrently,
/// each in its own slot (slot_elems apart in `slots`); slots never
/// outlive the wave, so the scratch footprint stays bufs slots.
/// Otherwise one slot stays hot and each stripe parallelises its
/// row-panel loop inside.
template <typename T, typename RunStripe>
void stripe_waves(std::size_t stripes, std::size_t bufs, T* slots,
                  std::size_t slot_elems, bool parallel,
                  RunStripe&& run_stripe) {
  const std::size_t executors = ThreadPool::global().executors();
  if (parallel && bufs > 1 && stripes >= executors) {
    for (std::size_t s0 = 0; s0 < stripes; s0 += bufs) {
      const std::size_t wave = std::min(bufs, stripes - s0);
      parallel_for(
          0, wave,
          [&](std::size_t i) {
            run_stripe(s0 + i, slots + i * slot_elems,
                       /*inner_parallel=*/false);
          },
          /*grain=*/1);
    }
  } else {
    for (std::size_t s = 0; s < stripes; ++s) run_stripe(s, slots, parallel);
  }
}

/// The stripe driver behind every gemm_packed_im2col overload. Walks
/// the packer's batch columns in fused_panel_cols(k) stripes, packs
/// each into a wave slot of `scratch` and multiplies it with `kernel`
/// (the weight format's AVX2 or scalar kernel). A stripe inside one
/// image writes that image's CHW plane directly; a stripe spanning
/// images runs into the slot's staging tile — preloaded from C when
/// the epilogue accumulates — and is copied out per image.
template <typename Packed>
void im2col_stripes(const Packed& a, PackedKernel<Packed> kernel,
                    const Im2colPanelPacker& packer, float* c,
                    std::size_t out_stride, float* scratch,
                    const GemmEpilogue& epilogue, bool parallel) {
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n_img = packer.image_cols();
  const std::size_t n = packer.cols();
  if (m == 0 || n == 0) return;
  OCB_CHECK_MSG(k == packer.rows(),
                "packed weight depth != im2col column rows");
  OCB_CHECK_MSG(k > 0, "im2col conv GEMM requires a non-empty reduction");
  OCB_CHECK_MSG(packer.batch() == 1 || out_stride >= m * n_img,
                "output image stride below one image's output");

  const std::size_t w = fused_panel_cols(k);
  const std::size_t stripes = (n + w - 1) / w;
  const std::size_t bufs = fused_panel_buffers(stripes);
  const std::size_t slot_floats =
      stripe_slot_floats(k, m, n_img, packer.batch());

  auto run_stripe = [&](std::size_t s, float* slot, bool inner_parallel) {
    const std::size_t j0 = s * w;
    const std::size_t jw = std::min(w, n - j0);
    packer.pack(j0, jw, slot);
    const std::size_t b0 = j0 / n_img;
    if ((j0 + jw - 1) / n_img == b0) {
      kernel(a, slot, jw, c + b0 * out_stride + (j0 - b0 * n_img), n_img, jw,
             /*accumulate=*/false, epilogue, inner_parallel);
      return;
    }
    // Spanning stripe: image b's slice [j, j + len) of the stripe is
    // columns [pix, pix + len) of its CHW plane.
    float* tile = slot + k * w;
    const auto each_slice = [&](bool to_tile) {
      for (std::size_t j = j0; j < j0 + jw;) {
        const std::size_t b = j / n_img;
        const std::size_t pix = j - b * n_img;
        const std::size_t len = std::min(j0 + jw - j, n_img - pix);
        float* img = c + b * out_stride + pix;
        float* t = tile + (j - j0);
        for (std::size_t r = 0; r < m; ++r) {
          if (to_tile) {
            std::copy_n(img + r * n_img, len, t + r * jw);
          } else {
            std::copy_n(t + r * jw, len, img + r * n_img);
          }
        }
        j += len;
      }
    };
    if (epilogue.mode != EpiMode::kStore) each_slice(/*to_tile=*/true);
    kernel(a, slot, jw, tile, jw, jw, /*accumulate=*/false, epilogue,
           inner_parallel);
    each_slice(/*to_tile=*/false);
  };

  stripe_waves(stripes, bufs, scratch, slot_floats, parallel, run_stripe);
#if defined(OCB_FAULT_HOOKS)
  for (int b = 0; b < packer.batch(); ++b)
    fault_hook::detail::maybe_corrupt_lanes(
        c + static_cast<std::size_t>(b) * out_stride, m, n_img, n_img);
#endif
}

}  // namespace ocb::detail
