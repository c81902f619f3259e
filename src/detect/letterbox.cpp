#include "detect/letterbox.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "image/transform.hpp"
#include "parallel/parallel_for.hpp"

namespace ocb {

Image letterbox(const Image& src, int size, LetterboxInfo& info) {
  OCB_CHECK_MSG(size > 0, "letterbox size must be positive");
  const float scale =
      std::min(static_cast<float>(size) / static_cast<float>(src.width()),
               static_cast<float>(size) / static_cast<float>(src.height()));
  const int new_w = std::max(1, static_cast<int>(std::round(src.width() * scale)));
  const int new_h = std::max(1, static_cast<int>(std::round(src.height() * scale)));
  Image resized = resize_bilinear(src, new_w, new_h);

  constexpr float kPadGrey = 114.0f / 255.0f;
  Image canvas(size, size, src.channels(), kPadGrey);
  const int off_x = (size - new_w) / 2;
  const int off_y = (size - new_h) / 2;
  // One row memcpy per (channel, row) of the resized image, split over
  // the pool: this copy sits inside every timed detection frame.
  parallel_rows(static_cast<std::size_t>(src.channels()) * new_h,
                [&](std::size_t r) {
                  const std::size_t c = r / static_cast<std::size_t>(new_h);
                  const std::size_t y = r % static_cast<std::size_t>(new_h);
                  std::memcpy(canvas.data() +
                                  (c * size + y + off_y) * size + off_x,
                              resized.data() + r * new_w,
                              static_cast<std::size_t>(new_w) * sizeof(float));
                });

  info.scale = scale;
  info.pad_x = static_cast<float>(off_x);
  info.pad_y = static_cast<float>(off_y);
  return canvas;
}

Box unletterbox_box(const Box& box, const LetterboxInfo& info) noexcept {
  Box out;
  out.x0 = (box.x0 - info.pad_x) / info.scale;
  out.y0 = (box.y0 - info.pad_y) / info.scale;
  out.x1 = (box.x1 - info.pad_x) / info.scale;
  out.y1 = (box.y1 - info.pad_y) / info.scale;
  return out;
}

Box letterbox_box(const Box& box, const LetterboxInfo& info) noexcept {
  Box out;
  out.x0 = box.x0 * info.scale + info.pad_x;
  out.y0 = box.y0 * info.scale + info.pad_y;
  out.x1 = box.x1 * info.scale + info.pad_x;
  out.y1 = box.y1 * info.scale + info.pad_y;
  return out;
}

}  // namespace ocb
