#include "tensor/im2col.hpp"

#include <algorithm>

namespace ocb {

void im2col(const float* image, const ConvGeometry& geom, float* col) {
  im2col(image, geom, col, geom.col_cols(), 0);
}

void im2col(const float* image, const ConvGeometry& geom, float* col,
            std::size_t ld, std::size_t col_offset) {
  const int oh = geom.out_h();
  const int ow = geom.out_w();
  OCB_CHECK_MSG(oh > 0 && ow > 0, "conv output would be empty");
  OCB_CHECK_MSG(col_offset + geom.col_cols() <= ld,
                "im2col column window exceeds the destination row");
  const std::size_t plane = static_cast<std::size_t>(geom.in_h) * geom.in_w;
  std::size_t row = 0;
  for (int c = 0; c < geom.in_c; ++c) {
    const float* src = image + static_cast<std::size_t>(c) * plane;
    for (int ky = 0; ky < geom.kernel_h; ++ky) {
      for (int kx = 0; kx < geom.kernel_w; ++kx, ++row) {
        float* dst = col + row * ld + col_offset;
        for (int y = 0; y < oh; ++y) {
          const int sy = y * geom.stride - geom.pad + ky;
          if (sy < 0 || sy >= geom.in_h) {
            for (int x = 0; x < ow; ++x) *dst++ = 0.0f;
            continue;
          }
          const float* src_row = src + static_cast<std::size_t>(sy) * geom.in_w;
          for (int x = 0; x < ow; ++x) {
            const int sx = x * geom.stride - geom.pad + kx;
            *dst++ = (sx >= 0 && sx < geom.in_w) ? src_row[sx] : 0.0f;
          }
        }
      }
    }
  }
}

namespace {

/// Valid output-x range [xlo, xhi) of one kernel tap kx: the x for
/// which sx = x·stride − pad + kx stays inside [0, in_w). Shared by
/// both panel packers so the float and quad windows agree on padding.
inline void tap_x_range(const ConvGeometry& geom, int kx, int* xlo,
                        int* xhi) noexcept {
  const int lo = geom.pad - kx;
  *xlo = lo > 0 ? (lo + geom.stride - 1) / geom.stride : 0;
  const int hi_num = geom.in_w - 1 + geom.pad - kx;
  *xhi = hi_num < 0 ? 0 : hi_num / geom.stride + 1;
  if (*xhi < *xlo) *xhi = *xlo;
}

}  // namespace

namespace {

/// Output rows shorter than this pack through pack_gather: the
/// row-segment walk pays a fixed cost per segment, which on a 4-pixel
/// row is most of the work.
constexpr int kShortRow = 16;
/// Columns per offset table in pack_gather (a 2 KiB stack array).
constexpr std::size_t kGatherChunk = 256;

/// Window packing for short output rows: per column chunk and kernel
/// tap, one table of source offsets (-1 for padding) — built once,
/// shared by every input channel — then a plain gather per row.
void pack_gather(const float* image, const ConvGeometry& g,
                 std::size_t image_stride, std::size_t col0,
                 std::size_t width, float* dst) {
  const int oh = g.out_h();
  const int ow = g.out_w();
  const std::size_t n_img = static_cast<std::size_t>(oh) * ow;
  const std::size_t plane = static_cast<std::size_t>(g.in_h) * g.in_w;
  const int taps = g.kernel_h * g.kernel_w;
  std::ptrdiff_t off[kGatherChunk];
  for (std::size_t j0 = 0; j0 < width; j0 += kGatherChunk) {
    const std::size_t jw = std::min(kGatherChunk, width - j0);
    for (int ky = 0; ky < g.kernel_h; ++ky) {
      for (int kx = 0; kx < g.kernel_w; ++kx) {
        const std::size_t j = col0 + j0;
        std::size_t b = j / n_img;
        int y = static_cast<int>((j - b * n_img) / ow);
        int x = static_cast<int>((j - b * n_img) % ow);
        for (std::size_t t = 0; t < jw; ++t) {
          const int sy = y * g.stride - g.pad + ky;
          const int sx = x * g.stride - g.pad + kx;
          off[t] = sy >= 0 && sy < g.in_h && sx >= 0 && sx < g.in_w
                       ? static_cast<std::ptrdiff_t>(
                             b * image_stride +
                             static_cast<std::size_t>(sy) * g.in_w + sx)
                       : -1;
          if (++x == ow) {
            x = 0;
            if (++y == oh) {
              y = 0;
              ++b;
            }
          }
        }
        const int tap = ky * g.kernel_w + kx;
        for (int c = 0; c < g.in_c; ++c) {
          const float* chan = image + static_cast<std::size_t>(c) * plane;
          float* out =
              dst + static_cast<std::size_t>(c * taps + tap) * width + j0;
          for (std::size_t t = 0; t < jw; ++t)
            out[t] = off[t] < 0 ? 0.0f : chan[off[t]];
        }
      }
    }
  }
}

}  // namespace

void Im2colPanelPacker::pack(std::size_t col0, std::size_t width,
                             float* dst) const {
  const ConvGeometry& g = geom_;
  const int oh = g.out_h();
  const int ow = g.out_w();
  OCB_CHECK_MSG(col0 + width <= cols(),
                "im2col panel window exceeds the column matrix");
  if (ow < kShortRow) {
    pack_gather(image_, g, image_stride_, col0, width, dst);
    return;
  }
  const std::size_t plane = static_cast<std::size_t>(g.in_h) * g.in_w;
  const std::size_t n_img = image_cols();
  const std::size_t j1 = col0 + width;
  const std::size_t b0 = col0 / n_img;
  const int y0 = static_cast<int>((col0 - b0 * n_img) / ow);
  const int x00 = static_cast<int>((col0 - b0 * n_img) % ow);
  std::size_t row = 0;
  for (int c = 0; c < g.in_c; ++c) {
    const float* chan = image_ + static_cast<std::size_t>(c) * plane;
    for (int ky = 0; ky < g.kernel_h; ++ky) {
      for (int kx = 0; kx < g.kernel_w; ++kx, ++row) {
        int xlo = 0, xhi = 0;
        tap_x_range(g, kx, &xlo, &xhi);
        float* out = dst + row * width;
        // Walk the window one output-row slice at a time: x in
        // [x0, x0+seg) of row y of image b (rows never cross images).
        std::size_t j = col0, b = b0;
        int y = y0, x0 = x00;
        while (j < j1) {
          const int seg =
              static_cast<int>(std::min<std::size_t>(j1 - j, ow - x0));
          const int sy = y * g.stride - g.pad + ky;
          if (sy < 0 || sy >= g.in_h) {
            std::fill_n(out, seg, 0.0f);
          } else {
            const float* srow = chan + b * image_stride_ +
                                static_cast<std::size_t>(sy) * g.in_w;
            const int a = std::max(x0, xlo);
            const int e = std::min(x0 + seg, xhi);
            if (a >= e) {
              std::fill_n(out, seg, 0.0f);
            } else {
              std::fill_n(out, a - x0, 0.0f);
              if (g.stride == 1) {
                std::copy_n(srow + (a - g.pad + kx), e - a, out + (a - x0));
              } else if (g.stride == 2) {
                detail::gather_stride2(srow + (2 * a - g.pad + kx), e - a,
                                       out + (a - x0));
              } else {
                for (int x = a; x < e; ++x)
                  out[x - x0] = srow[x * g.stride - g.pad + kx];
              }
              std::fill_n(out + (e - x0), x0 + seg - e, 0.0f);
            }
          }
          out += seg;
          j += static_cast<std::size_t>(seg);
          x0 = 0;
          if (++y == oh) {
            y = 0;
            ++b;
          }
        }
      }
    }
  }
}

void Im2colQuadPanelPacker::pack(std::size_t col0, std::size_t width,
                                 std::uint8_t* dst) const {
  const ConvGeometry& g = geom_;
  const int ow = g.out_w();
  OCB_CHECK_MSG(col0 + width <= cols(),
                "im2col quad window exceeds the column matrix");
  constexpr std::size_t Q = 4;  // PackedQuantA::kQuadK
  const std::size_t nrows = rows();
  const std::size_t plane = static_cast<std::size_t>(g.in_h) * g.in_w;
  const std::size_t j1 = col0 + width;
  if (nrows % Q != 0) {
    // Partial final quad row: zero once, live bytes overwritten below.
    std::fill_n(dst + (nrows / Q) * width * Q, width * Q, std::uint8_t{0});
  }
  std::size_t row = 0;
  for (int c = 0; c < g.in_c; ++c) {
    const std::uint8_t* src = image_ + static_cast<std::size_t>(c) * plane;
    for (int ky = 0; ky < g.kernel_h; ++ky) {
      for (int kx = 0; kx < g.kernel_w; ++kx, ++row) {
        int xlo = 0, xhi = 0;
        tap_x_range(g, kx, &xlo, &xhi);
        std::uint8_t* out = dst + (row / Q) * width * Q + row % Q;
        std::size_t j = col0;
        while (j < j1) {
          const int y = static_cast<int>(j / ow);
          const int x0 = static_cast<int>(j % ow);
          const int seg =
              static_cast<int>(std::min<std::size_t>(j1 - j, ow - x0));
          const int sy = y * g.stride - g.pad + ky;
          if (sy < 0 || sy >= g.in_h) {
            for (int x = 0; x < seg; ++x, out += Q) *out = pad_value_;
          } else {
            const std::uint8_t* srow =
                src + static_cast<std::size_t>(sy) * g.in_w;
            const int a = std::max(x0, xlo);
            const int b = std::min(x0 + seg, xhi);
            for (int x = x0; x < std::min(a, x0 + seg); ++x, out += Q)
              *out = pad_value_;
            for (int x = std::max(a, x0); x < b; ++x, out += Q)
              *out = srow[x * g.stride - g.pad + kx];
            for (int x = std::max(b, x0); x < x0 + seg; ++x, out += Q)
              *out = pad_value_;
          }
          j += static_cast<std::size_t>(seg);
        }
      }
    }
  }
}

void col2im(const float* col, const ConvGeometry& geom, float* image_grad) {
  const int oh = geom.out_h();
  const int ow = geom.out_w();
  const std::size_t plane = static_cast<std::size_t>(geom.in_h) * geom.in_w;
  std::size_t row = 0;
  for (int c = 0; c < geom.in_c; ++c) {
    float* dst_plane = image_grad + static_cast<std::size_t>(c) * plane;
    for (int ky = 0; ky < geom.kernel_h; ++ky) {
      for (int kx = 0; kx < geom.kernel_w; ++kx, ++row) {
        const float* src = col + row * (static_cast<std::size_t>(oh) * ow);
        for (int y = 0; y < oh; ++y) {
          const int sy = y * geom.stride - geom.pad + ky;
          if (sy < 0 || sy >= geom.in_h) {
            src += ow;
            continue;
          }
          float* dst_row = dst_plane + static_cast<std::size_t>(sy) * geom.in_w;
          for (int x = 0; x < ow; ++x) {
            const int sx = x * geom.stride - geom.pad + kx;
            if (sx >= 0 && sx < geom.in_w) dst_row[sx] += src[x];
          }
          src += ow;
        }
      }
    }
  }
}

}  // namespace ocb
