#include "models/registry.hpp"

#include <cmath>
#include <cstddef>
#include <string>

#include "models/trt_pose.hpp"

#include <gtest/gtest.h>

#include "nn/engine.hpp"

namespace ocb::models {
namespace {

TEST(ModelTable, HasAllEightModels) {
  EXPECT_EQ(model_table().size(), 8u);
}

TEST(ModelTable, CategoriesMatchPaper) {
  int vest = 0, pose = 0, depth = 0;
  for (const auto& info : model_table()) {
    if (info.category == "Vest Detection") ++vest;
    if (info.category == "Pose Detection") ++pose;
    if (info.category == "Depth Estimation") ++depth;
  }
  EXPECT_EQ(vest, 6);
  EXPECT_EQ(pose, 1);
  EXPECT_EQ(depth, 1);
}

/// Parameter counts must land within 13% of Table 2 — the builders
/// reconstruct the architectures from their public definitions, with
/// BatchNorm folded (the paper's counts come from the framework).
class ParamFidelityTest : public ::testing::TestWithParam<ModelId> {};

TEST_P(ParamFidelityTest, ParamsWithinToleranceOfTable2) {
  const ModelInfo& info = model_info(GetParam());
  const nn::Graph graph = build_model(GetParam());
  const double params_m = static_cast<double>(graph.param_count()) / 1e6;
  const double rel_err =
      std::fabs(params_m - info.paper_params_m) / info.paper_params_m;
  EXPECT_LT(rel_err, 0.13) << info.name << ": " << params_m << "M vs paper "
                           << info.paper_params_m << "M";
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ParamFidelityTest,
    ::testing::Values(ModelId::kYoloV8n, ModelId::kYoloV8m, ModelId::kYoloV8x,
                      ModelId::kYoloV11n, ModelId::kYoloV11m,
                      ModelId::kYoloV11x, ModelId::kTrtPose,
                      ModelId::kMonodepth2));

TEST(ModelZoo, V8SizeOrderingHolds) {
  const auto n = build_model(ModelId::kYoloV8n).param_count();
  const auto m = build_model(ModelId::kYoloV8m).param_count();
  const auto x = build_model(ModelId::kYoloV8x).param_count();
  EXPECT_LT(n, m);
  EXPECT_LT(m, x);
}

TEST(ModelZoo, V11IsSmallerThanV8AtSameSize) {
  // Table 2: v11 has fewer parameters than v8 at every size letter.
  EXPECT_LT(build_model(ModelId::kYoloV11n).param_count(),
            build_model(ModelId::kYoloV8n).param_count());
  EXPECT_LT(build_model(ModelId::kYoloV11m).param_count(),
            build_model(ModelId::kYoloV8m).param_count());
  EXPECT_LT(build_model(ModelId::kYoloV11x).param_count(),
            build_model(ModelId::kYoloV8x).param_count());
}

TEST(ModelZoo, YoloHasThreeDetectOutputs) {
  const nn::Graph g = build_model(ModelId::kYoloV8n, 0.1);
  EXPECT_EQ(g.outputs().size(), 3u);
  // P3/P4/P5 shapes halve successively.
  const auto p3 = g.shape(g.outputs()[0]);
  const auto p4 = g.shape(g.outputs()[1]);
  const auto p5 = g.shape(g.outputs()[2]);
  EXPECT_EQ(p3.h, 2 * p4.h);
  EXPECT_EQ(p4.h, 2 * p5.h);
  // 64 DFL channels + 1 class.
  EXPECT_EQ(p3.c, 65);
}

TEST(ModelZoo, TrtPoseOutputsCmapAndPaf) {
  const nn::Graph g = build_model(ModelId::kTrtPose);
  ASSERT_EQ(g.outputs().size(), 2u);
  EXPECT_EQ(g.shape(g.outputs()[0]).c, kPoseKeypoints);
  EXPECT_EQ(g.shape(g.outputs()[1]).c, kPafChannels);
  // 1/8 resolution of the 224 input.
  EXPECT_EQ(g.shape(g.outputs()[0]).h, 28);
}

TEST(ModelZoo, MonodepthOutputsFullResolutionDisparity) {
  const nn::Graph g = build_model(ModelId::kMonodepth2);
  ASSERT_EQ(g.outputs().size(), 1u);
  const auto disp = g.shape(g.outputs()[0]);
  EXPECT_EQ(disp.c, 1);
  EXPECT_EQ(disp.h, 320);
  EXPECT_EQ(disp.w, 1024);
}

TEST(ModelZoo, MonodepthConvScratchStaysBlockSized) {
  // Winograd runs in L2-sized tile-row blocks, so the default plan's
  // conv scratch at deployment scale is a few blocks per wave — not
  // the whole-image transform buffers (167 MiB for this model).
  const nn::Graph g = build_model(ModelId::kMonodepth2);
  nn::Engine engine(g, 1);
  const nn::ExecutionPlan& plan = engine.prepare(nn::PlanRequest{});
  EXPECT_GT(plan.winograd_nodes, 0);
  EXPECT_GT(plan.conv_scratch_bytes, 0u);
  EXPECT_LE(plan.conv_scratch_bytes, std::size_t{32} << 20);
  EXPECT_NE(plan.to_text(g).find("conv scratch"), std::string::npos);
}

TEST(ModelZoo, FlopsScaleWithInputResolution) {
  const double full = profile_model(ModelId::kYoloV8n, 1.0).total_flops();
  const double half = profile_model(ModelId::kYoloV8n, 0.5).total_flops();
  EXPECT_NEAR(full / half, 4.0, 0.4);  // conv FLOPs scale with pixels
}

TEST(ModelZoo, ParamsIndependentOfInputResolution) {
  EXPECT_EQ(build_model(ModelId::kYoloV11m, 1.0).param_count(),
            build_model(ModelId::kYoloV11m, 0.25).param_count());
}

TEST(ModelZoo, SmallYoloExecutesEndToEnd) {
  // Execute YOLOv8-n at 64×64 through the real engine.
  const nn::Graph g = build_model(ModelId::kYoloV8n, 0.1);
  nn::Engine engine(g, 3);
  const auto in = g.input_shape();
  Tensor input({1, in.c, in.h, in.w});
  Rng rng(4);
  input.init_uniform(rng, 0.0f, 1.0f);
  const auto outputs = engine.run(input);
  ASSERT_EQ(outputs.size(), 3u);
  for (const auto& out : outputs) {
    for (std::size_t i = 0; i < out.numel(); ++i)
      ASSERT_TRUE(std::isfinite(out[i]));
  }
}

TEST(ModelZoo, SmallPoseModelExecutes) {
  const nn::Graph g = build_model(ModelId::kTrtPose, 0.3);
  nn::Engine engine(g, 5);
  const auto in = g.input_shape();
  Tensor input({1, in.c, in.h, in.w}, 0.5f);
  const auto outputs = engine.run(input);
  ASSERT_EQ(outputs.size(), 2u);
  EXPECT_TRUE(std::isfinite(outputs[0][0]));
}

TEST(ModelZoo, FlopsMatchKnownYoloMagnitudes) {
  // Official YOLOv8 GFLOPs at 640²: n≈8.7, m≈78.9, x≈257.8. Ours count
  // 2·MAC convs only (no BN), so allow 15%.
  EXPECT_NEAR(profile_model(ModelId::kYoloV8n).total_flops() / 1e9, 8.7,
              8.7 * 0.15);
  EXPECT_NEAR(profile_model(ModelId::kYoloV8m).total_flops() / 1e9, 78.9,
              78.9 * 0.15);
  EXPECT_NEAR(profile_model(ModelId::kYoloV8x).total_flops() / 1e9, 257.8,
              257.8 * 0.15);
}

TEST(ModelInfo, LookupByIdConsistent) {
  for (const auto& info : model_table())
    EXPECT_EQ(model_info(info.id).name, info.name);
}

}  // namespace
}  // namespace ocb::models
