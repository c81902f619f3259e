// Micro-benchmarks of the engine substrate (google-benchmark).
//
// Quantifies the design decisions in DESIGN.md: blocked vs naive GEMM,
// im2col-lowered convolution, NMS, and the renderer's hot paths.
#include <benchmark/benchmark.h>

#include "dataset/render.hpp"
#include "detect/nms.hpp"
#include "image/transform.hpp"
#include "nn/ops.hpp"
#include "tensor/gemm.hpp"

namespace ocb {
namespace {

void BM_GemmBlocked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (float& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (float& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto _ : state) {
    gemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_GemmBlocked)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (float& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (float& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto _ : state) {
    gemm_naive(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_GemmNaive)->Arg(64)->Arg(128)->Arg(256);

void BM_Conv3x3Im2col(benchmark::State& state) {
  const int c = static_cast<int>(state.range(0));
  const int hw = 32;
  const ConvGeometry geom{c, hw, hw, 3, 3, 1, 1};
  Rng rng(2);
  std::vector<float> input(static_cast<std::size_t>(c) * hw * hw);
  std::vector<float> weight(static_cast<std::size_t>(c) * c * 9);
  std::vector<float> bias(static_cast<std::size_t>(c));
  std::vector<float> output(static_cast<std::size_t>(c) * hw * hw);
  for (float& v : input) v = static_cast<float>(rng.uniform(-1, 1));
  for (float& v : weight) v = static_cast<float>(rng.uniform(-1, 1));
  nn::ConvScratch scratch;
  for (auto _ : state) {
    nn::conv2d(input.data(), geom, c, weight.data(), bias.data(),
               nn::Act::kSilu, output.data(), scratch);
    benchmark::DoNotOptimize(output.data());
  }
}
BENCHMARK(BM_Conv3x3Im2col)->Arg(16)->Arg(32)->Arg(64);

void BM_DepthwiseConv(benchmark::State& state) {
  const int c = static_cast<int>(state.range(0));
  const int hw = 32;
  const ConvGeometry geom{c, hw, hw, 3, 3, 1, 1};
  Rng rng(3);
  std::vector<float> input(static_cast<std::size_t>(c) * hw * hw);
  std::vector<float> weight(static_cast<std::size_t>(c) * 9);
  std::vector<float> bias(static_cast<std::size_t>(c));
  std::vector<float> output(static_cast<std::size_t>(c) * hw * hw);
  for (float& v : input) v = static_cast<float>(rng.uniform(-1, 1));
  for (float& v : weight) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto _ : state) {
    nn::dwconv2d(input.data(), input.size(), 1, geom, weight.data(),
                 bias.data(), nn::Act::kNone, output.data(), output.size());
    benchmark::DoNotOptimize(output.data());
  }
}
BENCHMARK(BM_DepthwiseConv)->Arg(16)->Arg(64);

void BM_Nms(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(4);
  std::vector<Detection> dets;
  for (int i = 0; i < n; ++i) {
    Detection d;
    const float x = static_cast<float>(rng.uniform(0, 600));
    const float y = static_cast<float>(rng.uniform(0, 400));
    d.box = {x, y, x + 40, y + 60};
    d.confidence = static_cast<float>(rng.uniform(0.1, 1.0));
    dets.push_back(d);
  }
  for (auto _ : state) {
    auto kept = nms(dets, 0.5f);
    benchmark::DoNotOptimize(kept.data());
  }
}
BENCHMARK(BM_Nms)->Arg(64)->Arg(512);

void BM_RenderScene(benchmark::State& state) {
  Rng scene_rng(5);
  const dataset::SceneSpec spec =
      dataset::sample_scene(dataset::Category::kMixed, scene_rng);
  Rng rng(6);
  const int w = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto frame = dataset::render_scene(spec, w, w * 3 / 4, rng);
    benchmark::DoNotOptimize(frame.image.data());
  }
}
BENCHMARK(BM_RenderScene)->Arg(128)->Arg(256);

void BM_GaussianBlur(benchmark::State& state) {
  Image img(static_cast<int>(state.range(0)),
            static_cast<int>(state.range(0)), 3, 0.5f);
  for (auto _ : state) {
    Image out = gaussian_blur(img, 1.5f);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_GaussianBlur)->Arg(128)->Arg(256);

void BM_ResizeBilinear(benchmark::State& state) {
  Image img(512, 384, 3, 0.5f);
  const int target = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Image out = resize_bilinear(img, target, target);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ResizeBilinear)->Arg(64)->Arg(256);

}  // namespace
}  // namespace ocb
