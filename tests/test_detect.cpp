#include "detect/box.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <tuple>

#include "detect/letterbox.hpp"
#include "detect/nms.hpp"
#include "image/draw.hpp"
#include "image/transform.hpp"

namespace ocb {
namespace {

TEST(Box, AreaAndValidity) {
  const Box b{1, 2, 5, 6};
  EXPECT_TRUE(b.valid());
  EXPECT_FLOAT_EQ(b.area(), 16.0f);
  const Box degenerate{3, 3, 3, 5};
  EXPECT_FALSE(degenerate.valid());
  EXPECT_FLOAT_EQ(degenerate.area(), 0.0f);
}

TEST(Box, CenterAndFromCenterRoundTrip) {
  const Box b = Box::from_center(10, 20, 4, 6);
  EXPECT_FLOAT_EQ(b.cx(), 10.0f);
  EXPECT_FLOAT_EQ(b.cy(), 20.0f);
  EXPECT_FLOAT_EQ(b.width(), 4.0f);
  EXPECT_FLOAT_EQ(b.height(), 6.0f);
}

TEST(Box, ClippedStaysInBounds) {
  const Box b{-5, -5, 50, 50};
  const Box c = b.clipped(20, 10);
  EXPECT_FLOAT_EQ(c.x0, 0.0f);
  EXPECT_FLOAT_EQ(c.y0, 0.0f);
  EXPECT_FLOAT_EQ(c.x1, 20.0f);
  EXPECT_FLOAT_EQ(c.y1, 10.0f);
}

TEST(Iou, IdenticalBoxesIsOne) {
  const Box b{0, 0, 10, 10};
  EXPECT_FLOAT_EQ(iou(b, b), 1.0f);
}

TEST(Iou, DisjointBoxesIsZero) {
  EXPECT_FLOAT_EQ(iou({0, 0, 5, 5}, {6, 6, 10, 10}), 0.0f);
}

TEST(Iou, HalfOverlap) {
  // Two 10×10 boxes overlapping in a 5×10 strip: IoU = 50/150.
  EXPECT_NEAR(iou({0, 0, 10, 10}, {5, 0, 15, 10}), 1.0f / 3.0f, 1e-6f);
}

TEST(Iou, SymmetricAndBounded) {
  const Box a{0, 0, 7, 3}, b{2, 1, 9, 8};
  EXPECT_FLOAT_EQ(iou(a, b), iou(b, a));
  EXPECT_GE(iou(a, b), 0.0f);
  EXPECT_LE(iou(a, b), 1.0f);
}

TEST(Iou, DegenerateBoxGivesZero) {
  EXPECT_FLOAT_EQ(iou({5, 5, 5, 5}, {0, 0, 10, 10}), 0.0f);
}

TEST(Nms, KeepsHighestConfidenceAmongOverlaps) {
  std::vector<Detection> dets{
      {{0, 0, 10, 10}, 0.8f, 0},
      {{1, 1, 11, 11}, 0.9f, 0},
      {{0.5f, 0.5f, 10.5f, 10.5f}, 0.7f, 0},
  };
  const auto kept = nms(dets, 0.5f);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_FLOAT_EQ(kept[0].confidence, 0.9f);
}

TEST(Nms, KeepsDistinctObjects) {
  std::vector<Detection> dets{
      {{0, 0, 10, 10}, 0.9f, 0},
      {{50, 50, 60, 60}, 0.8f, 0},
  };
  EXPECT_EQ(nms(dets, 0.5f).size(), 2u);
}

TEST(Nms, ClassAware) {
  std::vector<Detection> dets{
      {{0, 0, 10, 10}, 0.9f, 0},
      {{0, 0, 10, 10}, 0.8f, 1},  // same box, different class → kept
  };
  EXPECT_EQ(nms(dets, 0.5f).size(), 2u);
}

TEST(Nms, EmptyInputEmptyOutput) {
  EXPECT_TRUE(nms({}, 0.5f).empty());
}

TEST(Nms, OutputSortedByConfidence) {
  std::vector<Detection> dets{
      {{0, 0, 5, 5}, 0.3f, 0},
      {{20, 20, 30, 30}, 0.9f, 0},
      {{50, 0, 60, 5}, 0.6f, 0},
  };
  const auto kept = nms(dets, 0.5f);
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_GE(kept[0].confidence, kept[1].confidence);
  EXPECT_GE(kept[1].confidence, kept[2].confidence);
}

TEST(FilterConfidence, DropsLowScores) {
  std::vector<Detection> dets{
      {{0, 0, 5, 5}, 0.3f, 0}, {{0, 0, 5, 5}, 0.7f, 0}};
  const auto kept = filter_confidence(dets, 0.5f);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_FLOAT_EQ(kept[0].confidence, 0.7f);
}

TEST(ArgmaxConfidence, FindsBestAndHandlesEmpty) {
  std::vector<Detection> dets{
      {{0, 0, 5, 5}, 0.3f, 0}, {{0, 0, 5, 5}, 0.7f, 0}};
  EXPECT_EQ(argmax_confidence(dets), 1);
  EXPECT_EQ(argmax_confidence({}), -1);
}

TEST(Letterbox, SquareInputFillsCanvas) {
  Image src(64, 64, 3, 0.5f);
  LetterboxInfo info;
  const Image out = letterbox(src, 32, info);
  EXPECT_EQ(out.width(), 32);
  EXPECT_EQ(out.height(), 32);
  EXPECT_FLOAT_EQ(info.scale, 0.5f);
  EXPECT_FLOAT_EQ(info.pad_x, 0.0f);
  EXPECT_FLOAT_EQ(info.pad_y, 0.0f);
}

TEST(Letterbox, WideInputPadsVertically) {
  Image src(128, 64, 3, 1.0f);
  LetterboxInfo info;
  const Image out = letterbox(src, 64, info);
  EXPECT_FLOAT_EQ(info.scale, 0.5f);
  EXPECT_FLOAT_EQ(info.pad_x, 0.0f);
  EXPECT_FLOAT_EQ(info.pad_y, 16.0f);
  // Padding rows carry the neutral grey.
  EXPECT_NEAR(out.pixel(0, 32).r, 114.0f / 255.0f, 1e-4f);
  // Content rows carry the source value.
  EXPECT_NEAR(out.pixel(32, 32).r, 1.0f, 1e-4f);
}

TEST(Letterbox, BoxRoundTrip) {
  Image src(100, 50, 3);
  LetterboxInfo info;
  (void)letterbox(src, 64, info);
  const Box original{10, 5, 40, 30};
  const Box mapped = letterbox_box(original, info);
  const Box back = unletterbox_box(mapped, info);
  EXPECT_NEAR(back.x0, original.x0, 1e-3f);
  EXPECT_NEAR(back.y0, original.y0, 1e-3f);
  EXPECT_NEAR(back.x1, original.x1, 1e-3f);
  EXPECT_NEAR(back.y1, original.y1, 1e-3f);
}

TEST(Letterbox, TallInputPadsHorizontally) {
  Image src(30, 90, 3);
  LetterboxInfo info;
  const Image out = letterbox(src, 45, info);
  EXPECT_EQ(out.width(), 45);
  EXPECT_FLOAT_EQ(info.scale, 0.5f);
  EXPECT_GT(info.pad_x, 0.0f);
  EXPECT_FLOAT_EQ(info.pad_y, 0.0f);
}

TEST(Letterbox, RowCopyMatchesPixelLoopBitExact) {
  // The canvas rows are memcpy'd over the pool; the oracle is the
  // per-pixel at() loop they replaced, on a resize big enough to split.
  for (const auto& [w, h, size] : {std::tuple{640, 480, 320},
                                   std::tuple{90, 300, 128},
                                   std::tuple{7, 5, 9}}) {
    Image src(w, h, 3);
    for (int c = 0; c < 3; ++c)
      for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
          src.at(c, y, x) = static_cast<float>((x * 7 + y * 13 + c) % 255) /
                            255.0f;
    LetterboxInfo info;
    const Image got = letterbox(src, size, info);

    const int new_w = std::max(1, static_cast<int>(std::round(w * info.scale)));
    const int new_h = std::max(1, static_cast<int>(std::round(h * info.scale)));
    const Image resized = resize_bilinear(src, new_w, new_h);
    Image want(size, size, 3, 114.0f / 255.0f);
    const int off_x = static_cast<int>(info.pad_x);
    const int off_y = static_cast<int>(info.pad_y);
    for (int c = 0; c < 3; ++c)
      for (int y = 0; y < new_h; ++y)
        for (int x = 0; x < new_w; ++x)
          want.at(c, y + off_y, x + off_x) = resized.at(c, y, x);
    ASSERT_EQ(got.width(), size);
    ASSERT_EQ(got.height(), size);
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          sizeof(float) * 3 * size * size),
              0)
        << w << "x" << h << " -> " << size;
  }
}

TEST(Letterbox, RejectsBadSize) {
  Image src(10, 10, 3);
  LetterboxInfo info;
  EXPECT_THROW(letterbox(src, 0, info), Error);
}

class IouPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(IouPropertyTest, ContainedBoxIouIsAreaRatio) {
  const float k = static_cast<float>(GetParam());
  const Box outer{0, 0, 10 * k, 10 * k};
  const Box inner{k, k, 6 * k, 6 * k};  // 5k×5k inside 10k×10k
  EXPECT_NEAR(iou(outer, inner), (5 * 5) / 100.0f, 1e-5f);
}

INSTANTIATE_TEST_SUITE_P(Scales, IouPropertyTest, ::testing::Values(1, 2, 7));

}  // namespace
}  // namespace ocb
