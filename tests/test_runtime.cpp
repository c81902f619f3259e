#include "runtime/executor.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/rng.hpp"

#include "models/registry.hpp"
#include "nn/conv_plan.hpp"
#include "runtime/frame_source.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/placement.hpp"
#include "runtime/streaming_pipeline.hpp"

namespace ocb::runtime {
namespace {

dataset::VideoClip test_clip() {
  dataset::VideoClip clip;
  clip.id = 0;
  clip.category = dataset::Category::kFootpathPedestrians;
  clip.seed = 99;
  clip.extracted_frames = 50;  // 5 s of footage
  return clip;
}

TEST(CameraSource, StreamsRequestedFps) {
  CameraSource source(test_clip(), 96, 72, 5.0, 1);
  int frames = 0;
  double last_t = -1.0;
  while (auto frame = source.next()) {
    EXPECT_GT(frame->timestamp_s, last_t);
    last_t = frame->timestamp_s;
    EXPECT_EQ(frame->image.width(), 96);
    ++frames;
  }
  EXPECT_EQ(frames, 25);  // 5 s at 5 FPS
}

TEST(CameraSource, ResetRestartsStream) {
  CameraSource source(test_clip(), 64, 48, 10.0, 1);
  (void)source.next();
  (void)source.next();
  source.reset();
  auto frame = source.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->index, 0);
}

TEST(CameraSource, RejectsFpsAboveExtractRate) {
  EXPECT_THROW(CameraSource(test_clip(), 64, 48, 30.0, 1), Error);
}

TEST(CameraSource, FramesCarryGroundTruth) {
  CameraSource source(test_clip(), 96, 72, 5.0, 1);
  const auto frame = source.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(frame->vest_truth.box.valid());
}

TEST(HostExecutor, MeasuresRealExecution) {
  const nn::Graph g = models::build_model(models::ModelId::kYoloV8n, 0.1);
  // Construction prepares the engine with the default plan, which
  // consults the process-wide plan cache.
  const nn::PlanCache::Stats before = nn::PlanCache::global().stats();
  HostExecutor executor(g, "v8n@host");
  const nn::PlanCache::Stats after = nn::PlanCache::global().stats();
  EXPECT_GT(after.hits + after.misses, before.hits + before.misses);
  const FrameResult result = executor.run(FrameContext{});
  EXPECT_GT(result.latency_ms, 0.0);
  EXPECT_EQ(result.stage, "v8n@host");
  EXPECT_EQ(result.status, StageStatus::kOk);
  EXPECT_NE(result.payload, nullptr);  // raw output tensors ride along
  EXPECT_EQ(executor.name(), "v8n@host");
}

TEST(SimulatedExecutor, NameAndPositiveLatency) {
  const auto profile = models::profile_model(models::ModelId::kYoloV8n);
  SimulatedExecutor executor(profile, devsim::device_spec(
                                          devsim::DeviceId::kOrinAgx),
                             7);
  EXPECT_EQ(executor.name(), "YOLOv8-n@o-agx");
  FrameContext ctx;
  for (int i = 0; i < 10; ++i) {
    ctx.index = i;
    const FrameResult result = executor.run(ctx);
    EXPECT_GT(result.latency_ms, 0.0);
    EXPECT_EQ(result.status, StageStatus::kOk);
  }
}

TEST(Executor, InferMsAdapterStillReportsLatency) {
  const auto profile = models::profile_model(models::ModelId::kYoloV8n);
  SimulatedExecutor executor(
      profile, devsim::device_spec(devsim::DeviceId::kOrinAgx), 7);
  for (int i = 0; i < 5; ++i) EXPECT_GT(executor.infer_ms(), 0.0);
}

TEST(BenchmarkExecutor, Summarises) {
  const auto profile = models::profile_model(models::ModelId::kYoloV8n);
  SimulatedExecutor executor(
      profile, devsim::device_spec(devsim::DeviceId::kRtx4090), 7);
  const Summary s = benchmark_executor(executor, 100);
  EXPECT_EQ(s.count, 100u);
  EXPECT_LE(s.median, 25.0);  // workstation budget
}

devsim::JitterModel no_jitter() {
  devsim::JitterModel jitter;
  jitter.sigma = 0.0;
  jitter.straggler_prob = 0.0;
  jitter.warmup_frames = 0;
  return jitter;
}

TEST(Pipeline, SequentialAddsStageLatencies) {
  const auto yolo = models::profile_model(models::ModelId::kYoloV8n);
  const auto pose = models::profile_model(models::ModelId::kTrtPose);
  const auto& dev = devsim::device_spec(devsim::DeviceId::kOrinAgx);
  Pipeline pipeline =
      PipelineBuilder()
          .stage(std::make_unique<SimulatedExecutor>(
              yolo, dev, 1, devsim::RooflineOptions{}, no_jitter()))
          .stage(std::make_unique<SimulatedExecutor>(
              pose, dev, 2, devsim::RooflineOptions{}, no_jitter()))
          .discipline(Discipline::kSequential)
          .deadline_ms(1000.0)
          .build();
  const PipelineStats stats = pipeline.run(20);
  const double expected = devsim::model_latency_ms(yolo, dev) +
                          devsim::model_latency_ms(pose, dev);
  EXPECT_NEAR(stats.per_frame.median, expected, expected * 0.02);
  EXPECT_DOUBLE_EQ(stats.deadline_miss_rate, 0.0);
}

TEST(Pipeline, ParallelTakesMaxLatency) {
  const auto yolo = models::profile_model(models::ModelId::kYoloV8x);
  const auto pose = models::profile_model(models::ModelId::kTrtPose);
  const auto& dev = devsim::device_spec(devsim::DeviceId::kOrinAgx);
  Pipeline pipeline =
      PipelineBuilder()
          .stage(std::make_unique<SimulatedExecutor>(
              yolo, dev, 1, devsim::RooflineOptions{}, no_jitter()))
          .stage(std::make_unique<SimulatedExecutor>(
              pose, dev, 2, devsim::RooflineOptions{}, no_jitter()))
          .discipline(Discipline::kParallel)
          .build();
  const PipelineStats stats = pipeline.run(20, 1000.0);
  const double expected = devsim::model_latency_ms(yolo, dev);
  EXPECT_NEAR(stats.per_frame.median, expected, expected * 0.02);
}

TEST(Pipeline, DeadlineMissRateCounted) {
  const auto yolo = models::profile_model(models::ModelId::kYoloV8x);
  const auto& nx = devsim::device_spec(devsim::DeviceId::kXavierNx);
  Pipeline pipeline =
      PipelineBuilder()
          .stage(std::make_unique<SimulatedExecutor>(yolo, nx, 1))
          // ~989 ms per frame against a 33 ms deadline: everything misses.
          .deadline_ms(1000.0 / 30.0)
          .build();
  const PipelineStats stats = pipeline.run(30);
  EXPECT_DOUBLE_EQ(stats.deadline_miss_rate, 1.0);
}

TEST(PipelineBuilder, EmptyStagesThrow) {
  EXPECT_THROW(PipelineBuilder().build(), Error);
  EXPECT_THROW(PipelineBuilder().build_streaming(), Error);
}

TEST(PipelineBuilder, RejectsInvalidConfiguration) {
  EXPECT_THROW(PipelineBuilder().deadline_ms(0.0), Error);
  EXPECT_THROW(PipelineBuilder().queue_capacity(0), Error);
  EXPECT_THROW(PipelineBuilder().time_scale(0.0), Error);
  EXPECT_THROW(PipelineBuilder().stage(nullptr), Error);
}

std::vector<Candidate> make_candidates() {
  // Accuracy values shaped like Fig 3: larger models slightly better.
  return {
      {models::profile_model(models::ModelId::kYoloV8n), 0.986},
      {models::profile_model(models::ModelId::kYoloV8m), 0.990},
      {models::profile_model(models::ModelId::kYoloV8x), 0.991},
      {models::profile_model(models::ModelId::kYoloV11m), 0.9949},
      {models::profile_model(models::ModelId::kYoloV11x), 0.9927},
  };
}

TEST(Placement, PicksMostAccurateWithinBudget) {
  const auto candidates = make_candidates();
  const auto placement =
      best_on_device(candidates, devsim::DeviceId::kOrinAgx, 200.0);
  ASSERT_TRUE(placement.has_value());
  // v11-m (~115 ms on AGX, accuracy 0.9949) wins under a 200 ms budget.
  EXPECT_EQ(placement->model_name, "YOLOv11-m");
  EXPECT_LE(placement->latency_ms, 200.0);
}

TEST(Placement, TightBudgetForcesNano) {
  const auto candidates = make_candidates();
  const auto placement =
      best_on_device(candidates, devsim::DeviceId::kXavierNx, 80.0);
  ASSERT_TRUE(placement.has_value());
  EXPECT_EQ(placement->model_name, "YOLOv8-n");
}

TEST(Placement, ImpossibleBudgetGivesNothing) {
  const auto candidates = make_candidates();
  EXPECT_FALSE(
      best_on_device(candidates, devsim::DeviceId::kXavierNx, 1.0).has_value());
}

TEST(Placement, WorkstationRunsEverything) {
  const auto candidates = make_candidates();
  const auto placement =
      best_on_device(candidates, devsim::DeviceId::kRtx4090, 25.0);
  ASSERT_TRUE(placement.has_value());
  EXPECT_EQ(placement->model_name, "YOLOv11-m");  // highest accuracy fits
}

TEST(Placement, EdgeCloudEscalatesWhenRttAllows) {
  const auto candidates = make_candidates();
  const auto plan = plan_edge_cloud(candidates, devsim::DeviceId::kXavierNx,
                                    200.0, 30.0);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->edge.model_name, "YOLOv8-n");  // only one fitting NX@200
  ASSERT_TRUE(plan->cloud.has_value());
  EXPECT_GT(plan->cloud->accuracy, plan->edge.accuracy);
  EXPECT_LE(plan->cloud->latency_ms, 200.0);
}

TEST(Placement, EdgeCloudSkipsCloudWhenRttTooHigh) {
  const auto candidates = make_candidates();
  const auto plan = plan_edge_cloud(candidates, devsim::DeviceId::kOrinAgx,
                                    200.0, 500.0);
  ASSERT_TRUE(plan.has_value());
  EXPECT_FALSE(plan->cloud.has_value());
}

TEST(Placement, EmptyCandidateListGivesNothing) {
  EXPECT_FALSE(
      best_on_device({}, devsim::DeviceId::kOrinAgx, 1000.0).has_value());
  EXPECT_FALSE(plan_edge_cloud({}, devsim::DeviceId::kOrinAgx, 1000.0, 10.0)
                   .has_value());
}

TEST(Placement, AccuracyTieBreaksOnLatency) {
  // Two candidates with identical accuracy: the faster one must win.
  std::vector<Candidate> tied = {
      {models::profile_model(models::ModelId::kYoloV8m), 0.99},
      {models::profile_model(models::ModelId::kYoloV8n), 0.99},
  };
  const auto placement =
      best_on_device(tied, devsim::DeviceId::kOrinAgx, 1000.0);
  ASSERT_TRUE(placement.has_value());
  EXPECT_EQ(placement->model_name, "YOLOv8-n");
}

TEST(Placement, MinEdgeAccuracyFiltersEdgeButNotCloud) {
  const auto candidates = make_candidates();
  // 0.99 excludes v8-n (0.986) from the *edge* shortlist; the edge pick
  // must clear the floor even if a less accurate model would be faster.
  const auto plan = plan_edge_cloud(candidates, devsim::DeviceId::kOrinAgx,
                                    200.0, 30.0, 0.99);
  ASSERT_TRUE(plan.has_value());
  EXPECT_GE(plan->edge.accuracy, 0.99);
  EXPECT_NE(plan->edge.model_name, "YOLOv8-n");
}

TEST(Placement, UnreachableEdgeAccuracyFloorGivesNothing) {
  const auto candidates = make_candidates();
  EXPECT_FALSE(plan_edge_cloud(candidates, devsim::DeviceId::kOrinAgx, 200.0,
                               30.0, 0.999)
                   .has_value());
}

TEST(Placement, CloudLatencyIncludesRoundTrip) {
  const auto candidates = make_candidates();
  const auto plan = plan_edge_cloud(candidates, devsim::DeviceId::kXavierNx,
                                    200.0, 30.0);
  ASSERT_TRUE(plan.has_value());
  ASSERT_TRUE(plan->cloud.has_value());
  EXPECT_DOUBLE_EQ(plan->cloud_round_trip_ms, 30.0);
  // The cloud placement's reported latency already pays the RTT, so it
  // can never beat the bare network round trip.
  EXPECT_GT(plan->cloud->latency_ms, 30.0);
}

}  // namespace
}  // namespace ocb::runtime
