// Multi-model serving scheduler: engine micro-batching equivalence,
// no-loss/no-duplication accounting, priority dispatch, admission
// control, and the degrade/cooldown/probe state machine. Runs under
// TSan via the `concurrency` ctest label.
#include "runtime/model_server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include "core/error.hpp"
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "models/registry.hpp"
#include "runtime/frame_source.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/streaming_pipeline.hpp"
#include "tensor/simd.hpp"

namespace ocb::runtime {
namespace {

nn::Graph serving_graph() {
  nn::Graph g;
  const int in = g.input(3, 16, 16);
  const int c1 = g.conv(in, 8, 3, 2, 1, nn::Act::kSilu, "c1");
  const int c2 = g.conv(c1, 8, 3, 1, 1, nn::Act::kSilu, "c2");
  const int add = g.add(c1, c2, "res");
  const int pool = g.maxpool(add, 2, 2, 0, "pool");
  const int up = g.upsample2x(pool, "up");
  const int cat = g.concat({up, add}, "cat");
  const int head = g.conv(cat, 4, 1, 1, 0, nn::Act::kSigmoid, "head");
  g.mark_output(head);
  return g;
}

Tensor frame_input(int frame) {
  Tensor t({1, 3, 16, 16});
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t.data()[i] =
        0.01f * static_cast<float>((frame * 131 + static_cast<int>(i) * 7) %
                                   200) -
        1.0f;
  }
  return t;
}

// --- Engine batch path -----------------------------------------------------

/// Every OpKind the engine interprets: strided and 1x1 convs, a
/// residual add, dwconv, maxpool, upsample, concat, slice, deconv,
/// global_avg_pool and a linear head.
nn::Graph all_ops_graph() {
  nn::Graph g;
  const int in = g.input(3, 16, 16);
  const int c1 = g.conv(in, 16, 3, 2, 1, nn::Act::kSilu, "c1");
  const int c2 = g.conv(c1, 16, 3, 1, 1, nn::Act::kSilu, "c2");
  const int add = g.add(c1, c2, "res");
  const int dw = g.dwconv(add, 3, 1, 1, nn::Act::kRelu, "dw");
  const int pw = g.conv(dw, 32, 1, 1, 0, nn::Act::kSilu, "pw");
  const int pool = g.maxpool(pw, 2, 2, 0, "pool");
  const int up = g.upsample2x(pool, "up");
  const int cat = g.concat({up, add}, "cat");
  const int sl = g.slice(cat, 8, 40, "slice");
  const int de = g.deconv(sl, 8, nn::Act::kRelu, "deconv");
  const int head = g.conv(de, 4, 1, 1, 0, nn::Act::kSigmoid, "head");
  const int gap = g.global_avg_pool(cat, "gap");
  const int fc = g.linear(gap, 64, nn::Act::kNone, "fc");
  g.mark_output(head);
  g.mark_output(fc);
  return g;
}

TEST(EngineBatch, BatchedMatchesSerial) {
  // run_batch must reproduce per-frame run() under every plan variant:
  // weight storage × precision. Both go through the same engine, so
  // they execute the same per-layer plan.
  constexpr int kFrames = 5;
  std::vector<Tensor> inputs;
  for (int f = 0; f < kFrames; ++f) inputs.push_back(frame_input(f));

  struct Variant {
    const char* name;
    nn::Precision precision;
    bool sparse;
  };
  const Variant variants[] = {
      {"fp32", nn::Precision::kFp32, false},
      {"fp16", nn::Precision::kFp16, false},
      {"sparse", nn::Precision::kFp32, true},
      {"sparse+fp16", nn::Precision::kFp16, true},
      {"int8", nn::Precision::kInt8, false},
  };
  for (const nn::Graph& g : {serving_graph(), all_ops_graph()}) {
    nn::Engine calibrator(g, 7);
    const nn::QuantCalibration calib = calibrator.calibrate(inputs);
    for (const Variant& v : variants) {
      SCOPED_TRACE(std::string(v.name) + " over " +
                   std::to_string(g.node_count()) + " nodes");
      nn::PlanRequest request;
      request.max_batch = kFrames;
      request.precision = v.precision;
      request.calibration = &calib;
      if (v.sparse) {
        request.sparsity.scheme = nn::SparsityScheme::kNm;
        request.sparsity.min_params = 64;  // prune the small layers too
      }
      if (v.precision == nn::Precision::kFp16) {
        // Model a weight-bandwidth-starved device, so the planner
        // picks 16-bit panels even for these small layers.
        request.planner.cost = nn::KernelCostModel::defaults(simd::active());
        request.planner.cost.weight_gbps = 0.01;
      }
      nn::Engine engine(g, 7);
      const nn::ExecutionPlan& plan = engine.prepare(request);
      if (v.sparse) EXPECT_GT(plan.sparse_nodes, 0);
      if (v.precision == nn::Precision::kFp16) EXPECT_GT(plan.fp16_nodes, 0);
      if (v.precision == nn::Precision::kInt8) EXPECT_GT(plan.quant_nodes, 0);

      const auto view = engine.run_batch(inputs);
      ASSERT_EQ(view.size(), static_cast<std::size_t>(kFrames));
      // run() reuses the output slots the batch view aliases.
      const std::vector<std::vector<Tensor>> batch_out(view.begin(),
                                                       view.end());
      for (int f = 0; f < kFrames; ++f) {
        const auto ref = engine.run(inputs[static_cast<std::size_t>(f)]);
        const auto& got = batch_out[static_cast<std::size_t>(f)];
        ASSERT_EQ(got.size(), ref.size());
        for (std::size_t o = 0; o < ref.size(); ++o) {
          ASSERT_EQ(got[o].shape(), ref[o].shape());
          EXPECT_TRUE(allclose(got[o], ref[o], 1e-4f))
              << "frame " << f << " output " << o;
        }
      }
    }
  }
}

TEST(EngineBatch, RunStillBatchOneAfterPlan) {
  const nn::Graph g = serving_graph();
  nn::Engine engine(g, 3);
  const Tensor input = frame_input(1);
  const auto before = engine.run(input);
  engine.prepare({.max_batch = 4});
  const auto after = engine.run(input);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t o = 0; o < before.size(); ++o) {
    EXPECT_EQ(after[o].shape(), before[o].shape());
    // Re-planning for a batch may legitimately switch a conv to an
    // algebraically equivalent kernel (e.g. Winograd), so compare
    // within the engine's documented numerical tolerance.
    EXPECT_TRUE(allclose(after[o], before[o], 1e-4f));
  }
}

TEST(EngineBatch, StaysHeapFreeAfterWarmup) {
  const nn::Graph g = serving_graph();
  nn::Engine engine(g, 3);
  engine.prepare({.max_batch = 4});
  std::vector<Tensor> inputs;
  for (int f = 0; f < 4; ++f) inputs.push_back(frame_input(f));
  (void)engine.run_batch(inputs);
  const auto grows = engine.scratch_arena().stats().grows;
  for (int rep = 0; rep < 3; ++rep) (void)engine.run_batch(inputs);
  (void)engine.run(inputs[0]);
  EXPECT_EQ(engine.scratch_arena().stats().grows, grows);
}

TEST(EngineBatch, RejectsOversizedBatch) {
  const nn::Graph g = serving_graph();
  nn::Engine engine(g, 3);
  engine.prepare({.max_batch = 2});
  std::vector<Tensor> inputs;
  for (int f = 0; f < 3; ++f) inputs.push_back(frame_input(f));
  EXPECT_THROW((void)engine.run_batch(inputs), Error);
}

// --- Test runners ----------------------------------------------------------

/// Deterministic stub: records every dispatched frame id and batch, and
/// reports a configurable modelled latency. An optional gate blocks the
/// runner until released, so tests can pile requests up behind a busy
/// worker without real sleeps.
class StubRunner final : public BatchRunner {
 public:
  struct State {
    std::mutex mutex;
    std::condition_variable cv;
    bool gate_closed = false;
    int entered = 0;
    std::vector<std::vector<int>> batches;  ///< dispatch order, all models
    std::vector<std::string> dispatch_models;
  };

  StubRunner(State& state, std::string model, double batch_ms)
      : state_(&state), model_(std::move(model)), batch_ms_(batch_ms) {}

  BatchOutput run(const std::vector<ServeRequest>& batch) override {
    std::unique_lock<std::mutex> lock(state_->mutex);
    ++state_->entered;
    state_->cv.notify_all();
    state_->cv.wait(lock, [&] { return !state_->gate_closed; });
    std::vector<int> frames;
    for (const ServeRequest& r : batch) frames.push_back(r.frame);
    state_->batches.push_back(frames);
    state_->dispatch_models.push_back(model_);
    BatchOutput out;
    out.batch_ms = batch_ms_;
    out.payloads.assign(batch.size(), nullptr);
    return out;
  }

  void set_batch_ms(double ms) {
    std::lock_guard<std::mutex> lock(state_->mutex);
    batch_ms_ = ms;
  }

 private:
  State* state_;
  std::string model_;
  double batch_ms_;
};

ServedModelConfig quick_model(std::string name, ServePriority priority) {
  ServedModelConfig cfg;
  cfg.name = std::move(name);
  cfg.priority = priority;
  cfg.max_batch = 4;
  cfg.batch_window_ms = 0.0;  // dispatch eagerly: no timing dependence
  cfg.queue_capacity = 64;
  cfg.admission = DropPolicy::kBlock;
  return cfg;
}

// --- Scheduler accounting --------------------------------------------------

TEST(ModelServer, NoFrameLostOrDuplicatedUnderConcurrency) {
  ServerConfig server_cfg;
  server_cfg.workers = 2;
  ModelServer server(server_cfg);
  StubRunner::State state;
  const int kModels = 3;
  const int kFrames = 200;
  std::vector<int> handles;
  for (int m = 0; m < kModels; ++m) {
    auto cfg = quick_model("m" + std::to_string(m), ServePriority::kNormal);
    handles.push_back(
        server.add_model(cfg, std::make_unique<StubRunner>(
                                  state, cfg.name, 0.1)));
  }

  // One producer thread per model, all submitting concurrently.
  std::vector<std::vector<std::future<ServeResult>>> futures(kModels);
  std::vector<std::thread> producers;
  for (int m = 0; m < kModels; ++m) {
    producers.emplace_back([&, m] {
      for (int f = 0; f < kFrames; ++f) {
        ServeRequest req;
        req.frame = f;
        futures[static_cast<std::size_t>(m)].push_back(
            server.submit(handles[static_cast<std::size_t>(m)], req));
      }
    });
  }
  for (auto& p : producers) p.join();
  server.drain();

  for (int m = 0; m < kModels; ++m) {
    std::multiset<int> frames;
    for (auto& fut : futures[static_cast<std::size_t>(m)]) {
      const ServeResult r = fut.get();
      EXPECT_EQ(r.outcome, ServeOutcome::kOk);
      frames.insert(r.frame);
    }
    // Every frame resolved exactly once.
    ASSERT_EQ(frames.size(), static_cast<std::size_t>(kFrames));
    for (int f = 0; f < kFrames; ++f) EXPECT_EQ(frames.count(f), 1u);
  }

  const ServerReport report = server.report();
  ASSERT_EQ(report.models.size(), static_cast<std::size_t>(kModels));
  for (const auto& m : report.models) {
    EXPECT_EQ(m.submitted, static_cast<std::uint64_t>(kFrames));
    EXPECT_EQ(m.completed, static_cast<std::uint64_t>(kFrames));
    EXPECT_EQ(m.batched_frames, static_cast<std::uint64_t>(kFrames));
    EXPECT_EQ(m.dropped, 0u);
    EXPECT_EQ(m.degraded, 0u);
    EXPECT_LE(m.largest_batch, 4u);
  }
}

TEST(ModelServer, DeterministicResultsVsSerialEngine) {
  const nn::Graph g = serving_graph();
  nn::Engine served_engine(g, 11);
  nn::Engine reference(g, 11);

  ModelServer server;  // one worker: a single accelerator
  auto cfg = quick_model("det", ServePriority::kCritical);
  cfg.batch_window_ms = 1.0;  // let requests coalesce
  const int h = server.add_model(
      cfg, std::make_unique<EngineBatchRunner>(served_engine, 4));

  const int kFrames = 24;
  std::vector<std::future<ServeResult>> futures;
  for (int f = 0; f < kFrames; ++f) {
    ServeRequest req;
    req.frame = f;
    req.input = std::make_shared<Tensor>(frame_input(f));
    futures.push_back(server.submit(h, req));
  }
  server.drain();

  for (int f = 0; f < kFrames; ++f) {
    const ServeResult r = futures[static_cast<std::size_t>(f)].get();
    ASSERT_EQ(r.outcome, ServeOutcome::kOk);
    ASSERT_NE(r.payload, nullptr);
    const auto& outputs =
        *std::static_pointer_cast<std::vector<Tensor>>(r.payload);
    const auto ref = reference.run(frame_input(f));
    ASSERT_EQ(outputs.size(), ref.size());
    for (std::size_t o = 0; o < ref.size(); ++o) {
      ASSERT_EQ(outputs[o].shape(), ref[o].shape());
      EXPECT_TRUE(allclose(outputs[o], ref[o], 1e-4f)) << "frame " << f;
    }
  }
}

TEST(ModelServer, PriorityClassesDispatchInOrder) {
  ModelServer server;  // one worker serialises dispatches
  StubRunner::State state;
  auto* depth_runner = new StubRunner(state, "depth", 0.1);
  const int depth = server.add_model(
      quick_model("depth", ServePriority::kNormal),
      std::unique_ptr<BatchRunner>(depth_runner));
  const int pose =
      server.add_model(quick_model("pose", ServePriority::kHigh),
                       std::make_unique<StubRunner>(state, "pose", 0.1));
  const int det =
      server.add_model(quick_model("det", ServePriority::kCritical),
                       std::make_unique<StubRunner>(state, "det", 0.1));

  // Close the gate and occupy the worker with a depth request, then
  // pile one request per class behind it.
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    state.gate_closed = true;
  }
  auto blocker = server.submit(depth, ServeRequest{0, nullptr});
  {
    std::unique_lock<std::mutex> lock(state.mutex);
    state.cv.wait(lock, [&] { return state.entered == 1; });
  }
  auto f_depth = server.submit(depth, ServeRequest{1, nullptr});
  auto f_pose = server.submit(pose, ServeRequest{2, nullptr});
  auto f_det = server.submit(det, ServeRequest{3, nullptr});
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    state.gate_closed = false;
  }
  state.cv.notify_all();
  server.drain();
  (void)blocker.get();
  (void)f_depth.get();
  (void)f_pose.get();
  (void)f_det.get();

  std::lock_guard<std::mutex> lock(state.mutex);
  ASSERT_EQ(state.dispatch_models.size(), 4u);
  EXPECT_EQ(state.dispatch_models[0], "depth");  // the blocker
  EXPECT_EQ(state.dispatch_models[1], "det");    // critical preempts
  EXPECT_EQ(state.dispatch_models[2], "pose");
  EXPECT_EQ(state.dispatch_models[3], "depth");
}

TEST(ModelServer, MicroBatchCoalescesQueuedRequests) {
  ModelServer server;
  StubRunner::State state;
  auto cfg = quick_model("m", ServePriority::kNormal);
  cfg.max_batch = 3;
  const int h =
      server.add_model(cfg, std::make_unique<StubRunner>(state, "m", 0.1));

  {
    std::lock_guard<std::mutex> lock(state.mutex);
    state.gate_closed = true;
  }
  auto blocker = server.submit(h, ServeRequest{0, nullptr});
  {
    std::unique_lock<std::mutex> lock(state.mutex);
    state.cv.wait(lock, [&] { return state.entered == 1; });
  }
  std::vector<std::future<ServeResult>> queued;
  for (int f = 1; f <= 5; ++f) queued.push_back(server.submit(h, {f, nullptr}));
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    state.gate_closed = false;
  }
  state.cv.notify_all();
  server.drain();
  (void)blocker.get();

  // 5 queued requests behind a max_batch of 3 → batches of 3 then 2.
  std::vector<int> sizes;
  for (auto& fut : queued) {
    const ServeResult r = fut.get();
    EXPECT_EQ(r.outcome, ServeOutcome::kOk);
    sizes.push_back(r.batch_size);
  }
  EXPECT_EQ(sizes, (std::vector<int>{3, 3, 3, 2, 2}));
  std::lock_guard<std::mutex> lock(state.mutex);
  ASSERT_EQ(state.batches.size(), 3u);
  EXPECT_EQ(state.batches[1], (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(state.batches[2], (std::vector<int>{4, 5}));
}

TEST(ModelServer, AdmissionDropNewestRejectsOverflow) {
  ModelServer server;
  StubRunner::State state;
  auto cfg = quick_model("m", ServePriority::kNormal);
  cfg.queue_capacity = 2;
  cfg.max_batch = 1;
  cfg.admission = DropPolicy::kDropNewest;
  const int h =
      server.add_model(cfg, std::make_unique<StubRunner>(state, "m", 0.1));

  {
    std::lock_guard<std::mutex> lock(state.mutex);
    state.gate_closed = true;
  }
  auto blocker = server.submit(h, ServeRequest{0, nullptr});
  {
    std::unique_lock<std::mutex> lock(state.mutex);
    state.cv.wait(lock, [&] { return state.entered == 1; });
  }
  auto a = server.submit(h, ServeRequest{1, nullptr});
  auto b = server.submit(h, ServeRequest{2, nullptr});
  auto c = server.submit(h, ServeRequest{3, nullptr});  // over capacity
  EXPECT_EQ(c.get().outcome, ServeOutcome::kDropped);   // resolves at once
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    state.gate_closed = false;
  }
  state.cv.notify_all();
  server.drain();
  (void)blocker.get();
  EXPECT_EQ(a.get().outcome, ServeOutcome::kOk);
  EXPECT_EQ(b.get().outcome, ServeOutcome::kOk);
  EXPECT_EQ(server.report().models[0].dropped, 1u);
}

TEST(ModelServer, AdmissionDropOldestEvictsHead) {
  ModelServer server;
  StubRunner::State state;
  auto cfg = quick_model("m", ServePriority::kNormal);
  cfg.queue_capacity = 2;
  cfg.max_batch = 1;
  cfg.admission = DropPolicy::kDropOldest;
  const int h =
      server.add_model(cfg, std::make_unique<StubRunner>(state, "m", 0.1));

  {
    std::lock_guard<std::mutex> lock(state.mutex);
    state.gate_closed = true;
  }
  auto blocker = server.submit(h, ServeRequest{0, nullptr});
  {
    std::unique_lock<std::mutex> lock(state.mutex);
    state.cv.wait(lock, [&] { return state.entered == 1; });
  }
  auto a = server.submit(h, ServeRequest{1, nullptr});
  auto b = server.submit(h, ServeRequest{2, nullptr});
  auto c = server.submit(h, ServeRequest{3, nullptr});  // evicts frame 1
  EXPECT_EQ(a.get().outcome, ServeOutcome::kDropped);
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    state.gate_closed = false;
  }
  state.cv.notify_all();
  server.drain();
  (void)blocker.get();
  EXPECT_EQ(b.get().outcome, ServeOutcome::kOk);
  EXPECT_EQ(c.get().outcome, ServeOutcome::kOk);
}

TEST(ModelServer, DegradeCooldownThenProbeRecovers) {
  ModelServer server;
  StubRunner::State state;
  auto cfg = quick_model("m", ServePriority::kNormal);
  cfg.max_batch = 1;
  cfg.timeout_ms = 5.0;       // per-frame budget
  cfg.degraded_cooldown = 3;  // bypassed requests before a probe
  auto runner = std::make_unique<StubRunner>(state, "m", 50.0);  // too slow
  StubRunner* raw = runner.get();
  const int h = server.add_model(cfg, std::move(runner));

  // First request runs, overruns the budget, and degrades the model.
  EXPECT_EQ(server.serve(h, ServeRequest{0, nullptr}).outcome,
            ServeOutcome::kOk);
  // The next `cooldown` requests bypass the runner instantly.
  for (int f = 1; f <= 3; ++f) {
    EXPECT_EQ(server.serve(h, ServeRequest{f, nullptr}).outcome,
              ServeOutcome::kDegraded)
        << "frame " << f;
  }
  // Cooldown exhausted: the next request probes the (now fast) runner
  // and service resumes.
  raw->set_batch_ms(1.0);
  EXPECT_EQ(server.serve(h, ServeRequest{4, nullptr}).outcome,
            ServeOutcome::kOk);
  EXPECT_EQ(server.serve(h, ServeRequest{5, nullptr}).outcome,
            ServeOutcome::kOk);

  const ServerReport report = server.report();
  const ModelServeTelemetry& t = report.models[0];
  EXPECT_EQ(t.timeouts, 1u);
  EXPECT_EQ(t.degraded, 3u);
  EXPECT_EQ(t.completed, 3u);
}

TEST(ModelServer, FailedProbeReentersCooldown) {
  ModelServer server;
  StubRunner::State state;
  auto cfg = quick_model("m", ServePriority::kNormal);
  cfg.max_batch = 1;
  cfg.timeout_ms = 5.0;
  cfg.degraded_cooldown = 2;
  const int h = server.add_model(
      cfg, std::make_unique<StubRunner>(state, "m", 50.0));

  EXPECT_EQ(server.serve(h, {0, nullptr}).outcome, ServeOutcome::kOk);
  EXPECT_EQ(server.serve(h, {1, nullptr}).outcome, ServeOutcome::kDegraded);
  EXPECT_EQ(server.serve(h, {2, nullptr}).outcome, ServeOutcome::kDegraded);
  // Probe runs the still-slow runner: served, but degrades again.
  EXPECT_EQ(server.serve(h, {3, nullptr}).outcome, ServeOutcome::kOk);
  EXPECT_EQ(server.serve(h, {4, nullptr}).outcome, ServeOutcome::kDegraded);
  EXPECT_EQ(server.report().models[0].timeouts, 2u);
}

TEST(ModelServer, ShutdownDrainsQueuedRequests) {
  StubRunner::State state;
  std::future<ServeResult> fut;
  {
    ModelServer server;
    const int h = server.add_model(
        quick_model("m", ServePriority::kNormal),
        std::make_unique<StubRunner>(state, "m", 0.1));
    fut = server.submit(h, ServeRequest{7, nullptr});
    // Destructor shutdown: the queued request is dispatched, not lost.
  }
  EXPECT_EQ(fut.get().outcome, ServeOutcome::kOk);
}

TEST(ModelServer, SubmitAfterShutdownResolvesDropped) {
  ModelServer server;
  StubRunner::State state;
  const int h =
      server.add_model(quick_model("m", ServePriority::kNormal),
                       std::make_unique<StubRunner>(state, "m", 0.1));
  server.shutdown();
  EXPECT_EQ(server.serve(h, ServeRequest{0, nullptr}).outcome,
            ServeOutcome::kDropped);
}

// --- Simulated runner + pipeline wiring ------------------------------------

TEST(SimulatedBatchRunner, BatchingAmortisesOverhead) {
  SimulatedBatchModel model;
  model.profile = models::profile_model(models::ModelId::kYoloV8n);
  model.device = devsim::device_spec(devsim::DeviceId::kRtx4090);
  SimulatedBatchRunner runner(model);
  const double one = runner.modeled_batch_ms(1);
  const double eight = runner.modeled_batch_ms(8);
  // Per-frame cost must shrink with batch size (launch + host overhead
  // amortisation) — the mechanism behind the serving speedup.
  EXPECT_LT(eight / 8.0, one / 1.5);
}

TEST(ServedExecutor, DrivesStreamingPipelineThroughServer) {
  ServerConfig server_cfg;
  server_cfg.workers = 1;
  ModelServer server(server_cfg);
  SimulatedBatchModel model;
  model.profile = models::profile_model(models::ModelId::kYoloV8n);
  model.device = devsim::device_spec(devsim::DeviceId::kRtx4090);
  auto cfg = quick_model("det", ServePriority::kCritical);
  const int h =
      server.add_model(cfg, std::make_unique<SimulatedBatchRunner>(model));

  auto pipeline = PipelineBuilder()
                      .stage_served(server, h, "served-det")
                      .deadline_ms(200.0)
                      .build_streaming();
  SyntheticSource source(40, 120.0);
  const StreamReport report = pipeline->run(source);
  EXPECT_EQ(report.frames_completed, 40u);
  EXPECT_EQ(report.frames_dropped, 0u);
  EXPECT_EQ(server.report().models[0].completed, 40u);
}

}  // namespace
}  // namespace ocb::runtime
