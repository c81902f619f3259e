// im2col / col2im lowering for convolution.
//
// A convolution with Cin input channels, kernel kh×kw and output size
// Ho×Wo becomes a GEMM of [Cout × Cin·kh·kw] by [Cin·kh·kw × Ho·Wo].
// col2im is the adjoint, used by the training engine's backward pass.
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"

namespace ocb {

struct ConvGeometry {
  int in_c = 0, in_h = 0, in_w = 0;
  int kernel_h = 1, kernel_w = 1;
  int stride = 1;
  int pad = 0;

  int out_h() const noexcept {
    return (in_h + 2 * pad - kernel_h) / stride + 1;
  }
  int out_w() const noexcept {
    return (in_w + 2 * pad - kernel_w) / stride + 1;
  }
  std::size_t col_rows() const noexcept {
    return static_cast<std::size_t>(in_c) * kernel_h * kernel_w;
  }
  std::size_t col_cols() const noexcept {
    return static_cast<std::size_t>(out_h()) * out_w();
  }
};

/// Expand one image (CHW, contiguous) into the column matrix
/// `col[col_rows × col_cols]` (row-major). Zero padding.
void im2col(const float* image, const ConvGeometry& geom, float* col);

/// As im2col, but lowering into a *wider* row-major matrix: the image's
/// columns land at column offset `col_offset` of a [col_rows × ld]
/// matrix. A batched convolution lowers B images side by side
/// (ld = B·col_cols, col_offset = b·col_cols) and runs one GEMM over
/// every column — each column's dot product is evaluated in the same
/// k-order as the single-image call, so per-image results match the
/// unbatched lowering.
void im2col(const float* image, const ConvGeometry& geom, float* col,
            std::size_t ld, std::size_t col_offset);

/// Adjoint of im2col: scatter-add columns back into the image gradient.
/// `image_grad` must be pre-zeroed by the caller.
void col2im(const float* col, const ConvGeometry& geom, float* image_grad);

namespace detail {
/// Strided gather used by Im2colPanelPacker on stride-2 rows:
/// out[i] = src[2·i] for i in [0, n). AVX2 deinterleave when the
/// dispatcher allows it (im2col_avx2.cpp), scalar otherwise.
void gather_stride2(const float* src, int n, float* out) noexcept;
}  // namespace detail

/// On-the-fly im2col panel packer — the engine's one conv lowering.
/// Instead of expanding the full [col_rows × col_cols] column matrix
/// into scratch, the stripe GEMM asks for one cache-resident column
/// window at a time: pack() walks the (c, kh, kw) strides of the NCHW
/// images directly and zero-fills padding. The columns run over a
/// whole batch, image-major: column b·col_cols + j is pixel j of image
/// b, the layout im2col(image, geom, col, ld, col_offset) would build
/// for the batch side by side. Row r of a window lands at
/// dst[r·width + j]; a window may span images. Values are bitwise
/// identical to the materialized lowering.
class Im2colPanelPacker {
 public:
  /// `batch` images of `geom`, image b at image + b·image_stride.
  Im2colPanelPacker(const float* image, const ConvGeometry& geom, int batch,
                    std::size_t image_stride) noexcept
      : image_(image), geom_(geom), batch_(batch),
        image_stride_(image_stride) {}

  std::size_t rows() const noexcept { return geom_.col_rows(); }
  /// Columns of the whole batch.
  std::size_t cols() const noexcept {
    return image_cols() * static_cast<std::size_t>(batch_);
  }
  /// Columns (output pixels) of one image.
  std::size_t image_cols() const noexcept { return geom_.col_cols(); }
  int batch() const noexcept { return batch_; }
  const ConvGeometry& geometry() const noexcept { return geom_; }

  /// Pack columns [col0, col0 + width) into the row-major panel `dst`
  /// (row stride = width). Requires col0 + width <= cols().
  void pack(std::size_t col0, std::size_t width, float* dst) const;

 private:
  const float* image_;
  ConvGeometry geom_;
  int batch_;
  std::size_t image_stride_;
};

/// Quantized twin of Im2colPanelPacker over one u8 image: packs a
/// column window of the activation quad layout the INT8 GEMM consumes
/// (see qgemm.hpp). The window's quad row q holds bytes
/// dst[(q·width + j)·4 + (k mod 4)]; spatial padding writes `pad_value`
/// — the activation zero-point, so a padded pixel dequantizes to 0 —
/// and the partial final quad's tail bytes are zeroed (the matching
/// weight bytes are zero, so zero only keeps runs deterministic).
class Im2colQuadPanelPacker {
 public:
  Im2colQuadPanelPacker(const std::uint8_t* image, const ConvGeometry& geom,
                        std::uint8_t pad_value) noexcept
      : image_(image), geom_(geom), pad_value_(pad_value) {}

  std::size_t rows() const noexcept { return geom_.col_rows(); }
  std::size_t cols() const noexcept { return geom_.col_cols(); }

  /// Pack columns [col0, col0 + width) of the quad layout into `dst`,
  /// which must hold quad_count · width · 4 bytes for
  /// quad_count = ceil(col_rows / 4).
  void pack(std::size_t col0, std::size_t width, std::uint8_t* dst) const;

 private:
  const std::uint8_t* image_;
  ConvGeometry geom_;
  std::uint8_t pad_value_;
};

}  // namespace ocb
