// ocb_bench: the end-to-end VIP-frame benchmark (see README.md).
//
//   ocb_bench --workload frame_s025 --seed 3 --seconds 15 --trace 0
//
// Drives the program through its public API only: models::build_model,
// nn::Engine (prepare with the default PlanRequest, run / run_batch),
// StreamingPipeline via PipelineBuilder, ModelServer with
// EngineBatchRunner, and letterbox / resize_bilinear on frames rendered
// from a seeded video clip. Every frame's outputs are checked against an
// engine that was never prepare()d. The last stdout line is the result:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of
// a traced run (--trace 1).
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <future>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "core/cli.hpp"
#include "core/error.hpp"
#include "core/stats.hpp"
#include "dataset/video.hpp"
#include "detect/letterbox.hpp"
#include "image/transform.hpp"
#include "models/registry.hpp"
#include "nn/engine.hpp"
#include "nn/ops.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/frame_source.hpp"
#include "runtime/model_server.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/streaming_pipeline.hpp"
#include "tensor/simd.hpp"
#include "trace.hpp"

namespace ocb::e2e {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point from, Clock::time_point to = Clock::now()) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double median(std::vector<double> values) {
  return values.empty() ? 0.0 : percentile(values, 0.5);
}

// --- workloads ------------------------------------------------------------

constexpr int kModels = 3;

struct ModelDef {
  models::ModelId id;
  const char* key;
  runtime::ServePriority priority;
};

// The paper's VIP frame in its run order: vest detection, pose, depth.
constexpr std::array<ModelDef, kModels> kModelDefs{{
    {models::ModelId::kYoloV8n, "yolov8n", runtime::ServePriority::kCritical},
    {models::ModelId::kTrtPose, "trt_pose", runtime::ServePriority::kHigh},
    {models::ModelId::kMonodepth2, "monodepth2",
     runtime::ServePriority::kNormal},
}};

enum class LoadShape { kClosed, kStream, kServed };

struct Workload {
  const char* name;
  LoadShape shape;
  double scale;  ///< models::build_model input scale
  int distinct;  ///< distinct rendered frames, cycled through the run
};

// frame_s100 cycles two frames, not four: its reference outputs cost
// ~3 s per frame (the unprepared im2col plan at deployment scale).
constexpr std::array<Workload, 4> kWorkloads{{
    {"frame_s100", LoadShape::kClosed, 1.0, 2},
    {"frame_s025", LoadShape::kClosed, 0.25, 4},
    {"stream_8fps", LoadShape::kStream, 0.25, 4},
    {"served_burst", LoadShape::kServed, 0.25, 4},
}};

constexpr int kCameraWidth = 1280;
constexpr int kCameraHeight = 720;
constexpr int kWarmupFrames = 2;
constexpr double kStreamFps = 8.0;
constexpr std::size_t kStreamQueue = 4;
constexpr double kStreamDeadlineMs = 200.0;
constexpr int kServeMaxBatch = 4;
constexpr std::size_t kServeQueue = 8;
constexpr double kServeWindowMs = 2.0;
/// VIP frames the server generator keeps outstanding: two full batches
/// per model, so batches fill. A fixed population keeps the latency a
/// property of the server, not of how deep the admission queues let an
/// unbounded burst pile up (which swung p90 by 50% run to run).
constexpr int kServeInFlight = 2 * kServeMaxBatch;
constexpr double kTailQuantile = 0.90;
constexpr int kReplayRuns = 5;
constexpr int kTopNodes = 10;
/// Single-thread sustained packed-GEMM rate of an AVX2 core, the
/// yardstick for a layer's achieved GFLOP/s in the trace's top-node
/// table (multi-threaded layers and Winograd's saved multiplies can
/// exceed it).
constexpr double kPackedGemmPeakGflops = 29.0;

struct Options {
  Workload workload;
  int seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string trace_file;
  std::string out;
  std::string git_sha;

  double scale() const { return smoke ? 0.25 : workload.scale; }
  int distinct() const { return smoke ? 1 : workload.distinct; }
  int setup_repeats() const { return smoke ? 1 : 3; }
};

// --- JSON -------------------------------------------------------------------

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + '"';
}

std::string json_number(double v) {
  OCB_CHECK_MSG(std::isfinite(v), "non-finite value in benchmark output");
  std::ostringstream os;
  os << std::setprecision(12) << v;
  return os.str();
}

/// Builds one JSON object, keys in insertion order.
class JsonObject {
 public:
  JsonObject& raw(std::string_view key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + json_string(key) + ':' + json;
    return *this;
  }
  JsonObject& add(std::string_view key, double v) {
    return raw(key, json_number(v));
  }
  JsonObject& add(std::string_view key, std::int64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& add(std::string_view key, int v) {
    return add(key, static_cast<std::int64_t>(v));
  }
  JsonObject& add(std::string_view key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& add(std::string_view key, const std::string& v) {
    return raw(key, json_string(v));
  }
  JsonObject& add(std::string_view key, const char* v) {
    return raw(key, json_string(v));
  }
  std::string str() const { return '{' + body_ + '}'; }

 private:
  std::string body_;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// --- conditions -------------------------------------------------------------

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf)
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand = brand.c_str();  // drop the NUL padding
    const auto first = brand.find_first_not_of(' ');
    if (first != std::string::npos) return brand.substr(first);
  }
#endif
  return "unknown";
}

std::string conditions_json(const Options& opt) {
#ifdef OCB_FAULT_HOOKS
  constexpr bool kFaultHooks = true;
#else
  constexpr bool kFaultHooks = false;
#endif
#ifdef OCB_PLAN_VERIFY
  constexpr bool kPlanVerify = true;
#else
  constexpr bool kPlanVerify = false;
#endif
  return JsonObject()
      .add("cpu_model", cpu_model())
      .add("nproc", static_cast<int>(std::thread::hardware_concurrency()))
      .add("pool_threads", static_cast<int>(ThreadPool::global().size()))
      .add("simd", simd::level_name(simd::active()))
      .add("build_type", OCB_E2E_BUILD_TYPE)
      .add("OCB_FAULT_HOOKS", kFaultHooks)
      .add("OCB_ALLOC_GUARD", OCB_E2E_ALLOC_GUARD != 0)
      .add("OCB_PLAN_VERIFY", kPlanVerify)
      .add("git_sha", opt.git_sha)
      .add("workload", opt.workload.name)
      .add("seed", opt.seed)
      .add("scale", opt.scale())
      .add("seconds", opt.seconds)
      .add("distinct_frames", opt.distinct())
      .add("smoke", opt.smoke)
      .str();
}

// --- inputs and correctness -------------------------------------------------

/// Model `model`'s input for a camera frame: detection takes the
/// letterboxed frame, pose and depth a plain bilinear resize.
void preprocess(const Image& frame, int model, Tensor& out) {
  const Shape& s = out.shape();
  LetterboxInfo info;
  const Image image = model == 0 ? letterbox(frame, s.w, info)
                                 : resize_bilinear(frame, s.w, s.h);
  OCB_CHECK(image.size() == out.numel());
  std::copy(image.data(), image.data() + image.size(), out.data());
}

/// max|out - ref| <= 1e-4 * max(1, max|ref|), per output tensor.
bool outputs_match(const std::vector<Tensor>& out,
                   const std::vector<Tensor>& ref) {
  if (out.size() != ref.size()) return false;
  for (std::size_t o = 0; o < out.size(); ++o) {
    if (!(out[o].shape() == ref[o].shape())) return false;
    float ref_max = 0.0f;
    for (std::size_t i = 0; i < ref[o].numel(); ++i)
      ref_max = std::max(ref_max, std::fabs(ref[o][i]));
    const float tol = 1e-4f * std::max(1.0f, ref_max);
    for (std::size_t i = 0; i < out[o].numel(); ++i)
      if (!(std::fabs(out[o][i] - ref[o][i]) <= tol)) return false;
  }
  return true;
}

struct Inputs {
  std::vector<Image> frames;  ///< distinct camera frames
  /// tensors[d][m]: model m's preprocessed input for frame d.
  std::vector<std::array<std::shared_ptr<const Tensor>, kModels>> tensors;
  /// reference[d][m]: outputs for tensors[d][m] of an engine that was
  /// never prepare()d (the constructor's fp32 im2col plan).
  std::vector<std::array<std::vector<Tensor>, kModels>> reference;

  std::size_t slot(int frame) const {
    return static_cast<std::size_t>(std::max(frame, 0)) % frames.size();
  }
};

/// Load generation: not timed and not part of set-up.
Inputs make_inputs(const Options& opt, Tracer& tracer) {
  Inputs in;
  dataset::VideoClip clip;
  clip.id = opt.seed;
  clip.category = dataset::Category::kMixed;
  clip.seed = static_cast<std::uint64_t>(opt.seed);
  clip.extracted_frames = 60 * dataset::kExtractFps;
  // One frame per clip second, so the cycled frames differ in content.
  runtime::CameraSource camera(clip, kCameraWidth, kCameraHeight, 1.0,
                               static_cast<std::uint64_t>(opt.seed));
  const auto count = static_cast<std::size_t>(opt.distinct());
  for (std::size_t d = 0; d < count; ++d) {
    std::optional<runtime::Frame> frame = camera.next();
    OCB_CHECK_MSG(frame.has_value(), "clip ended before the input set");
    in.frames.push_back(std::move(frame->image));
  }
  in.tensors.resize(count);
  in.reference.resize(count);
  for (int m = 0; m < kModels; ++m) {
    const nn::Graph graph = models::build_model(kModelDefs[m].id, opt.scale());
    const nn::FeatShape s = graph.input_shape();
    nn::Engine reference(graph);
    for (std::size_t d = 0; d < count; ++d) {
      auto x = std::make_shared<Tensor>(Shape{1, s.c, s.h, s.w});
      {
        ScopedSpan span(tracer, "input.preprocess", Layer::kImage, m,
                        static_cast<int>(d));
        preprocess(in.frames[d], m, *x);
      }
      in.reference[d][static_cast<std::size_t>(m)] = reference.run(*x);
      in.tensors[d][static_cast<std::size_t>(m)] = std::move(x);
    }
  }
  return in;
}

// --- what a workload run yields ---------------------------------------------

struct Outcome {
  double setup_s = 0.0;
  /// Headline latency per sample and the frame it belongs to: the VIP
  /// frame (closed loops), scheduled send -> last stage (stream), or the
  /// critical detection request submit -> resolve (server).
  std::vector<double> latency_ms;
  std::vector<int> latency_frame;
  /// Per sample: latency minus the time the work was being served.
  std::vector<double> wait_ms;
  double throughput_fps = 0.0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t mismatched = 0;
  int frames = 0;
  std::uint64_t pool_tasks = 0;  ///< ThreadPool::global() chunks, timed part
  JsonObject info;               ///< workload-specific diagnostics

  /// The prepared engines and the request they were planned with, for
  /// the single-node replay. `rig` owns them.
  std::array<nn::Engine*, kModels> engines{};
  nn::PlanRequest request{};
  std::shared_ptr<void> rig;
};

/// Runs `build` `repeats` times from a cold plan cache (as a fresh
/// process would start), keeps the last result, and returns the median
/// set-up time in seconds.
template <typename T, typename Build>
double timed_setup(int repeats, std::unique_ptr<T>& out, Build&& build) {
  std::vector<double> seconds;
  for (int r = 0; r < repeats; ++r) {
    out.reset();
    nn::PlanCache::global().clear();
    const auto t0 = Clock::now();
    out = build();
    seconds.push_back(ms_since(t0) * 1e-3);
  }
  return median(seconds);
}

/// Model `m` as the program runs it: built, constructed and prepared
/// with the default request.
std::unique_ptr<nn::Engine> prepare_model(int m, double scale, Tracer& tracer) {
  auto engine = std::make_unique<nn::Engine>(
      models::build_model(kModelDefs[static_cast<std::size_t>(m)].id, scale));
  ScopedSpan span(tracer, "Engine::prepare", Layer::kNn, m, kSetupFrame);
  engine->prepare(nn::PlanRequest{});
  return engine;
}

Tensor input_like(const Inputs& in, int m) {
  return Tensor(in.tensors[0][static_cast<std::size_t>(m)]->shape());
}

// --- closed loop: frame_s100, frame_s025 ------------------------------------

Outcome run_closed(const Options& opt, const Inputs& in, Tracer& tracer) {
  using Rig = std::array<std::unique_ptr<nn::Engine>, kModels>;
  Outcome o;
  std::unique_ptr<Rig> rig;
  o.setup_s = timed_setup(opt.setup_repeats(), rig, [&] {
    auto r = std::make_unique<Rig>();
    for (int m = 0; m < kModels; ++m)
      (*r)[static_cast<std::size_t>(m)] = prepare_model(m, opt.scale(), tracer);
    return r;
  });

  std::array<Tensor, kModels> x;
  for (int m = 0; m < kModels; ++m)
    x[static_cast<std::size_t>(m)] = input_like(in, m);
  std::array<const std::vector<Tensor>*, kModels> outs{};
  double service_ms = 0.0;
  // One VIP frame: preprocess + Engine::run per model, in sequence.
  const auto frame = [&](int i) {
    const Image& image = in.frames[in.slot(i)];
    ScopedSpan frame_span(tracer, "frame", Layer::kRuntime, -1, i);
    service_ms = 0.0;
    const auto t0 = Clock::now();
    for (std::size_t m = 0; m < kModels; ++m) {
      const auto s0 = Clock::now();
      {
        ScopedSpan span(tracer, "preprocess", Layer::kImage,
                        static_cast<int>(m), i);
        preprocess(image, static_cast<int>(m), x[m]);
      }
      {
        ScopedSpan span(tracer, "Engine::run", Layer::kNn,
                        static_cast<int>(m), i);
        outs[m] = &(*rig)[m]->run(x[m]);
      }
      service_ms += ms_since(s0);
    }
    return ms_since(t0);
  };

  for (int w = 0; w < kWarmupFrames; ++w) frame(kUntracedFrame);
  const std::uint64_t tasks0 = ThreadPool::global().tasks_dispatched();
  double busy_ms = 0.0;
  const auto start = Clock::now();
  for (int i = 0; i == 0 || ms_since(start) < opt.seconds * 1e3; ++i) {
    const double latency = frame(i);
    busy_ms += latency;
    o.latency_ms.push_back(latency);
    o.latency_frame.push_back(i);
    o.wait_ms.push_back(latency - service_ms);
    ++o.frames;
    // Checked outside the timed interval.
    bool ok = true;
    for (std::size_t m = 0; m < kModels; ++m)
      ok = ok && outputs_match(*outs[m], in.reference[in.slot(i)][m]);
    if (!ok) ++o.mismatched;
  }
  o.pool_tasks = ThreadPool::global().tasks_dispatched() - tasks0;
  o.attempted = o.frames;
  o.failed = o.mismatched;
  o.throughput_fps = o.frames * 1e3 / busy_ms;
  for (std::size_t m = 0; m < kModels; ++m) o.engines[m] = (*rig)[m].get();
  o.rig = std::move(rig);
  o.info.add("frames", o.frames);
  return o;
}

// --- open loop: stream_8fps -------------------------------------------------

/// Per-frame records of a streaming run. Each slot has a single writer
/// (the stage worker for its model); the sink reads them after run()
/// has joined every worker.
struct StreamLog {
  explicit StreamLog(int frames) {
    const auto n = static_cast<std::size_t>(frames);
    for (auto& v : service_ms) v.assign(n, 0.0);
    for (auto& v : status) v.assign(n, kNotRun);
    done.assign(n, Clock::time_point{});
  }
  static constexpr char kNotRun = 0, kOk = 1, kMismatch = 2;
  std::array<std::vector<double>, kModels> service_ms;
  std::array<std::vector<char>, kModels> status;
  std::vector<Clock::time_point> done;  ///< last stage's Engine::run return
  double gen_late_ms = 0.0;             ///< written by stage 0 only
};

/// Replays the rendered frames at the pipeline's pace: frame i carries a
/// copy of frame i mod D, as a camera would hand over a fresh buffer.
class CycledSource final : public runtime::FrameSource {
 public:
  CycledSource(const std::vector<Image>& frames, int count)
      : frames_(frames), count_(count) {}

  std::optional<runtime::Frame> next() override {
    if (cursor_ >= count_) return std::nullopt;
    if (cursor_ == 0) first_ = Clock::now();
    runtime::Frame frame;
    frame.image = frames_[static_cast<std::size_t>(cursor_) % frames_.size()];
    frame.index = cursor_;
    frame.timestamp_s = cursor_ / kStreamFps;
    ++cursor_;
    return frame;
  }
  /// When the pipeline pulled frame 0: the origin of the send schedule.
  Clock::time_point first() const { return first_; }

 private:
  const std::vector<Image>& frames_;
  int count_;
  int cursor_ = 0;
  Clock::time_point first_{};
};

/// A pipeline stage: preprocesses ctx.image and runs one prepared
/// engine. (runtime::HostExecutor cannot stand in: it never prepare()s
/// and times uniform noise instead of the frame; see README.md.)
class StageExecutor final : public runtime::Executor {
 public:
  StageExecutor(int model, double scale, Tracer& tracer, const Inputs& in,
                StreamLog& log)
      : model_(model),
        engine_(prepare_model(model, scale, tracer)),
        x_(input_like(in, model)),
        name_(kModelDefs[static_cast<std::size_t>(model)].key),
        tracer_(tracer),
        in_(in),
        log_(log) {}

  runtime::FrameResult run(const runtime::FrameContext& ctx) override {
    const int i = ctx.index;
    const auto slot = static_cast<std::size_t>(i);
    const auto m = static_cast<std::size_t>(model_);
    OCB_CHECK(ctx.image != nullptr && i >= 0 && slot < log_.done.size());
    if (model_ == 0)
      log_.gen_late_ms = std::max(log_.gen_late_ms,
                                  ctx.timestamp_ms - i * 1e3 / kStreamFps);
    const auto t0 = Clock::now();
    const std::vector<Tensor>* out = nullptr;
    {
      ScopedSpan stage(tracer_, "stage", Layer::kRuntime, model_, i);
      {
        ScopedSpan span(tracer_, "preprocess", Layer::kImage, model_, i);
        preprocess(*ctx.image, model_, x_);
      }
      ScopedSpan span(tracer_, "Engine::run", Layer::kNn, model_, i);
      out = &engine_->run(x_);
    }
    if (model_ == kModels - 1) log_.done[slot] = Clock::now();
    const double service = ms_since(t0);
    log_.service_ms[m][slot] = service;
    log_.status[m][slot] =
        outputs_match(*out, in_.reference[in_.slot(i)][m]) ? StreamLog::kOk
                                                            : StreamLog::kMismatch;
    runtime::FrameResult result;
    result.latency_ms = service;
    result.stage = name_;
    return result;
  }

  const std::string& name() const noexcept override { return name_; }

  void warm_up() {
    preprocess(in_.frames[0], model_, x_);
    engine_->run(x_);
  }
  nn::Engine& engine() { return *engine_; }

 private:
  int model_;
  std::unique_ptr<nn::Engine> engine_;
  Tensor x_;
  std::string name_;
  Tracer& tracer_;
  const Inputs& in_;
  StreamLog& log_;
};

Outcome run_stream(const Options& opt, const Inputs& in, Tracer& tracer) {
  struct Rig {
    explicit Rig(int frames) : log(frames) {}
    StreamLog log;  // outlives the stages that write it
    std::array<StageExecutor*, kModels> stages{};
    std::unique_ptr<runtime::StreamingPipeline> pipeline;
  };
  const int frames =
      std::max(1, static_cast<int>(std::lround(opt.seconds * kStreamFps)));
  Outcome o;
  std::unique_ptr<Rig> rig;
  o.setup_s = timed_setup(opt.setup_repeats(), rig, [&] {
    auto r = std::make_unique<Rig>(frames);
    runtime::PipelineBuilder builder;
    for (int m = 0; m < kModels; ++m) {
      auto stage = std::make_unique<StageExecutor>(m, opt.scale(), tracer, in,
                                                   r->log);
      r->stages[static_cast<std::size_t>(m)] = stage.get();
      builder.stage(std::move(stage));
    }
    r->pipeline = builder.discipline(runtime::Discipline::kSequential)
                      .queue_capacity(kStreamQueue)
                      .drop_policy(runtime::DropPolicy::kDropOldest)
                      .deadline_ms(kStreamDeadlineMs)
                      .stage_timeout_ms(0.0)
                      .source_fps(kStreamFps)
                      .build_streaming();
    return r;
  });

  for (int w = 0; w < kWarmupFrames; ++w)
    for (StageExecutor* stage : rig->stages) stage->warm_up();
  CycledSource source(in.frames, frames);
  const std::uint64_t tasks0 = ThreadPool::global().tasks_dispatched();
  const runtime::StreamReport report = rig->pipeline->run(source, frames);
  o.pool_tasks = ThreadPool::global().tasks_dispatched() - tasks0;
  const StreamLog& log = rig->log;

  const Clock::time_point first = source.first();
  Clock::time_point last = first;
  int good = 0;
  for (int i = 0; i < frames; ++i) {
    const auto slot = static_cast<std::size_t>(i);
    bool ok = true;
    bool mismatch = false;
    double service = 0.0;
    for (std::size_t m = 0; m < kModels; ++m) {
      ok = ok && log.status[m][slot] == StreamLog::kOk;
      mismatch = mismatch || log.status[m][slot] == StreamLog::kMismatch;
      service += log.service_ms[m][slot];
    }
    if (mismatch) ++o.mismatched;
    if (!ok) continue;
    const auto due = first + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(i / kStreamFps));
    const double e2e = ms_since(due, log.done[slot]);
    tracer.record("frame", Layer::kRuntime, -1, i, tracer.to_ns(due),
                  tracer.to_ns(log.done[slot]));
    o.latency_ms.push_back(e2e);
    o.latency_frame.push_back(i);
    o.wait_ms.push_back(e2e - service);
    last = std::max(last, log.done[slot]);
    if (e2e <= kStreamDeadlineMs) ++good;
  }
  o.frames = frames;
  o.attempted = frames;
  o.failed = frames - static_cast<std::int64_t>(o.latency_ms.size());
  const double span_s = ms_since(first, last) * 1e-3;
  o.throughput_fps = span_s > 0.0 ? good / span_s : 0.0;
  for (std::size_t m = 0; m < kModels; ++m)
    o.engines[m] = &rig->stages[m]->engine();
  o.rig = std::move(rig);
  o.info.add("frames", frames)
      .add("dropped", static_cast<std::int64_t>(report.frames_dropped))
      .add("degraded", static_cast<std::int64_t>(report.frames_degraded))
      .add("gen_late_ms_max", log.gen_late_ms)
      .add("e2e_ms_p95",
           o.latency_ms.empty() ? 0.0 : percentile(o.latency_ms, 0.95));
  return o;
}

// --- served burst -----------------------------------------------------------

/// EngineBatchRunner with a span around each batch; owns its engine.
class ServedRunner final : public runtime::BatchRunner {
 public:
  ServedRunner(int model, std::unique_ptr<nn::Engine> engine, Tracer& tracer)
      : model_(model),
        engine_(std::move(engine)),
        inner_(*engine_, kServeMaxBatch),
        tracer_(tracer) {}

  BatchOutput run(const std::vector<runtime::ServeRequest>& batch) override {
    const int frame = batch.front().frame;
    const std::int64_t t0 = tracer_.traces(frame) ? tracer_.now_ns() : 0;
    BatchOutput out = inner_.run(batch);
    if (tracer_.traces(frame))
      tracer_.record("EngineBatchRunner::run", Layer::kNn, model_, frame, t0,
                     tracer_.now_ns(), static_cast<int>(batch.size()));
    return out;
  }
  bool healthy() override { return inner_.healthy(); }
  bool reload() override { return inner_.reload(); }
  nn::Engine& engine() { return *engine_; }

 private:
  int model_;
  std::unique_ptr<nn::Engine> engine_;  // outlives inner_, which points at it
  runtime::EngineBatchRunner inner_;
  Tracer& tracer_;
};

Outcome run_served(const Options& opt, const Inputs& in, Tracer& tracer) {
  struct Rig {
    std::unique_ptr<runtime::ModelServer> server;
    std::array<ServedRunner*, kModels> runners{};
  };
  Outcome o;
  std::unique_ptr<Rig> rig;
  o.setup_s = timed_setup(opt.setup_repeats(), rig, [&] {
    auto r = std::make_unique<Rig>();
    r->server = std::make_unique<runtime::ModelServer>(runtime::ServerConfig{});
    for (int m = 0; m < kModels; ++m) {
      const ModelDef& def = kModelDefs[static_cast<std::size_t>(m)];
      auto engine =
          std::make_unique<nn::Engine>(models::build_model(def.id, opt.scale()));
      std::unique_ptr<ServedRunner> runner;
      {
        // EngineBatchRunner prepares the engine for its micro-batch.
        ScopedSpan span(tracer, "Engine::prepare", Layer::kNn, m, kSetupFrame);
        runner = std::make_unique<ServedRunner>(m, std::move(engine), tracer);
      }
      r->runners[static_cast<std::size_t>(m)] = runner.get();
      runtime::ServedModelConfig config;
      config.name = def.key;
      config.priority = def.priority;
      config.max_batch = kServeMaxBatch;
      config.batch_window_ms = kServeWindowMs;
      config.queue_capacity = kServeQueue;
      config.admission = runtime::DropPolicy::kBlock;
      r->server->add_model(config, std::move(runner));
    }
    return r;
  });
  runtime::ModelServer& server = *rig->server;

  for (int w = 0; w < kWarmupFrames; ++w)
    for (int m = 0; m < kModels; ++m)
      server.serve(m, runtime::ServeRequest{kUntracedFrame,
                                            in.tensors[0][static_cast<std::size_t>(m)]});

  struct Sent {
    int frame;
    int model;
    Clock::time_point submitted;
    double admit_ms;  ///< time blocked in submit() by kBlock admission
    std::future<runtime::ServeResult> future;
  };
  std::vector<Sent> sent;
  std::vector<runtime::ServeResult> results;  // sent[k] resolved as results[k]
  const auto resolve_oldest_frame = [&] {
    for (int m = 0; m < kModels; ++m)
      results.push_back(sent[results.size()].future.get());
  };
  const std::uint64_t tasks0 = ThreadPool::global().tasks_dispatched();
  const auto start = Clock::now();
  for (int i = 0; i == 0 || ms_since(start) < opt.seconds * 1e3; ++i) {
    if (i >= kServeInFlight) resolve_oldest_frame();
    for (int m = 0; m < kModels; ++m) {
      const auto t0 = Clock::now();
      auto future = server.submit(
          m, runtime::ServeRequest{i, in.tensors[in.slot(i)][static_cast<std::size_t>(m)]});
      sent.push_back(Sent{i, m, t0, ms_since(t0), std::move(future)});
    }
    o.frames = i + 1;
  }
  while (results.size() < sent.size()) resolve_oldest_frame();
  const double makespan_s = ms_since(start) * 1e-3;
  o.pool_tasks = ThreadPool::global().tasks_dispatched() - tasks0;

  // Checked after the run, so checking never competes with serving.
  std::vector<char> frame_ok(static_cast<std::size_t>(o.frames), 1);
  for (std::size_t k = 0; k < sent.size(); ++k) {
    const Sent& s = sent[k];
    const runtime::ServeResult& r = results[k];
    bool ok = r.outcome == runtime::ServeOutcome::kOk && r.payload != nullptr;
    if (ok &&
        !outputs_match(*std::static_pointer_cast<std::vector<Tensor>>(r.payload),
                       in.reference[in.slot(s.frame)][static_cast<std::size_t>(s.model)])) {
      ok = false;
      ++o.mismatched;
    }
    if (!ok) {
      ++o.failed;
      frame_ok[static_cast<std::size_t>(s.frame)] = 0;
    }
    if (s.model == 0 && ok) {
      const double latency = s.admit_ms + r.serve_ms;
      tracer.record("request", Layer::kRuntime, 0, s.frame,
                    tracer.to_ns(s.submitted),
                    tracer.to_ns(s.submitted) +
                        static_cast<std::int64_t>(latency * 1e6));
      o.latency_ms.push_back(latency);
      o.latency_frame.push_back(s.frame);
      o.wait_ms.push_back(latency - r.run_ms);
    }
  }
  o.attempted = static_cast<std::int64_t>(sent.size());
  o.throughput_fps =
      static_cast<double>(std::count(frame_ok.begin(), frame_ok.end(), 1)) /
      makespan_s;
  JsonObject batches;
  for (const runtime::ModelServeTelemetry& t : server.report().models)
    batches.add(t.name, t.mean_batch());
  o.info.add("frames", o.frames).raw("mean_batch", batches.str());
  for (std::size_t m = 0; m < kModels; ++m)
    o.engines[m] = &rig->runners[m]->engine();
  o.request.max_batch = kServeMaxBatch;
  o.rig = std::move(rig);
  return o;
}

// --- single-node replay (traced runs) ---------------------------------------

struct NodeTime {
  int node;
  double ms;
};

Tensor first_image(const Tensor& t, const nn::FeatShape& s) {
  Tensor out(Shape{1, s.c, s.h, s.w});
  std::copy_n(t.data(), out.numel(), out.data());
  return out;
}

template <typename Fn>
double median_ms(Fn&& fn) {
  fn();  // warm-up
  std::vector<double> times;
  for (int r = 0; r < kReplayRuns; ++r) {
    const auto t0 = Clock::now();
    fn();
    times.push_back(ms_since(t0));
  }
  return median(times);
}

/// Times node `i` of `graph` alone: a one-node graph with the node's
/// input shape and parameters, prepared with the workload's request and
/// fed the node's real input from `full`'s last run. The same plan key
/// must give the same conv algorithm as in the full model.
double replay_node(nn::Engine& full, const nn::PlanRequest& request, int i) {
  const nn::Graph& graph = full.graph();
  const nn::Node& nd = graph.node(i);
  if (nd.kind == nn::OpKind::kConcat) {
    std::vector<const float*> srcs;
    std::vector<int> channels;
    for (const int src : nd.inputs) {
      srcs.push_back(full.node_output(src).data());
      channels.push_back(graph.shape(src).c);
    }
    const nn::FeatShape out_shape = graph.shape(i);
    std::vector<float> out(out_shape.numel());
    return median_ms([&] {
      nn::concat_channels(srcs, channels, out_shape.h, out_shape.w, out.data());
    });
  }
  const nn::FeatShape in = graph.shape(nd.inputs.front());
  nn::Graph one;
  const int x = one.input(in.c, in.h, in.w);
  int y = -1;
  switch (nd.kind) {
    case nn::OpKind::kConv:
      y = one.conv(x, nd.out_c, nd.kernel, nd.stride, nd.pad, nd.act);
      break;
    case nn::OpKind::kDwConv:
      y = one.dwconv(x, nd.kernel, nd.stride, nd.pad, nd.act);
      break;
    case nn::OpKind::kDeconv: y = one.deconv(x, nd.out_c, nd.act); break;
    case nn::OpKind::kMaxPool:
      y = one.maxpool(x, nd.kernel, nd.stride, nd.pad);
      break;
    case nn::OpKind::kUpsample: y = one.upsample2x(x); break;
    case nn::OpKind::kAdd: y = one.add(x, x, "", nd.act); break;
    case nn::OpKind::kSlice:
      y = one.slice(x, nd.slice_begin, nd.slice_end);
      break;
    case nn::OpKind::kGlobalAvgPool: y = one.global_avg_pool(x); break;
    case nn::OpKind::kLinear: y = one.linear(x, nd.out_c, nd.act); break;
    case nn::OpKind::kInput:
    case nn::OpKind::kConcat:
      throw Error("replay_node: unexpected op");
  }
  one.mark_output(y);
  nn::Engine engine(one);
  const nn::ConvPlan& plan = engine.prepare(request).nodes[static_cast<std::size_t>(y)];
  const nn::ConvPlan& want = full.plan().nodes[static_cast<std::size_t>(i)];
  OCB_CHECK_MSG(plan.algo == want.algo && plan.storage == want.storage,
                "replayed node " + nd.name + " planned " +
                    nn::conv_algo_name(plan.algo) + ", full model " +
                    nn::conv_algo_name(want.algo));
  const Tensor input = first_image(full.node_output(nd.inputs.front()), in);
  return median_ms([&] { engine.run(input); });
}

std::vector<NodeTime> replay_model(nn::Engine& full,
                                   const nn::PlanRequest& request,
                                   const Tensor& input) {
  full.run(input);  // node_output() now holds this frame's activations
  std::vector<NodeTime> times;
  for (int i = 0; i < full.graph().node_count(); ++i)
    if (full.graph().node(i).kind != nn::OpKind::kInput)
      times.push_back({i, replay_node(full, request, i)});
  return times;
}

/// "conv.winograd", "deconv", ...: the op, and for convs the algorithm.
std::string node_label(const nn::Node& node, const nn::ConvPlan& plan) {
  std::string label = nn::op_name(node.kind);
  if (node.kind == nn::OpKind::kConv)
    label += std::string(".") + nn::conv_algo_name(plan.algo);
  return label;
}

bool has_flops(nn::OpKind kind) {
  return kind == nn::OpKind::kConv || kind == nn::OpKind::kDwConv ||
         kind == nn::OpKind::kDeconv || kind == nn::OpKind::kLinear;
}

// --- metrics ------------------------------------------------------------------

/// p50 over the spans named `name` (of `model`, when >= 0) of their
/// duration, divided by the frames each served.
double span_p50(const std::vector<Span>& spans, std::string_view name,
                int model) {
  std::vector<double> values;
  for (const Span& s : spans)
    if (name == s.name && (model < 0 || s.model == model))
      values.push_back(s.ms() / s.items);
  return median(std::move(values));
}

/// p50 over frames of the summed duration of the spans named `name`.
double per_frame_p50(const std::vector<Span>& spans, std::string_view name) {
  std::map<int, double> per_frame;
  for (const Span& s : spans)
    if (name == s.name) per_frame[s.frame] += s.ms();
  std::vector<double> values;
  for (const auto& [frame, ms] : per_frame) values.push_back(ms);
  return median(std::move(values));
}

std::vector<Metric> end_to_end_metrics(const Outcome& o) {
  OCB_CHECK_MSG(!o.latency_ms.empty(), "no operation completed");
  return {
      {"setup_s", o.setup_s, "s"},
      {"latency_ms_p50", percentile(o.latency_ms, 0.5), "ms"},
      {"latency_ms_p90", percentile(o.latency_ms, kTailQuantile), "ms"},
      {"throughput_fps", o.throughput_fps, "1/s"},
  };
}

/// Per-layer metrics of a traced run, plus the top-node table for the
/// trace file.
std::vector<Metric> per_layer_metrics(const Options& opt, const Outcome& o,
                                      const Inputs& in, const Tracer& tracer,
                                      JsonObject& top_nodes) {
  const std::vector<Span> spans = tracer.spans();
  std::vector<Metric> metrics;
  // The server runs on the pre-made inputs, so its image layer is the
  // preprocessing that made them.
  metrics.push_back({"image.preprocess_ms",
                     per_frame_p50(spans, opt.workload.shape == LoadShape::kServed
                                              ? "input.preprocess"
                                              : "preprocess"),
                     "ms"});
  metrics.push_back({"parallel.tasks_per_frame",
                     static_cast<double>(o.pool_tasks) / o.frames, "count"});
  metrics.push_back({"runtime.wait_ms", median(o.wait_ms), "ms"});
  std::vector<double> traced, untraced;
  for (std::size_t k = 0; k < o.latency_ms.size(); ++k)
    (tracer.traces(o.latency_frame[k]) ? traced : untraced)
        .push_back(o.latency_ms[k]);
  const double overhead =
      traced.empty() || untraced.empty()
          ? 0.0
          : (median(traced) / median(untraced) - 1.0) * 100.0;
  metrics.push_back({"trace.overhead_pct", overhead, "%"});

  const std::string_view run_span = opt.workload.shape == LoadShape::kServed
                                        ? "EngineBatchRunner::run"
                                        : "Engine::run";
  for (int m = 0; m < kModels; ++m) {
    const auto mi = static_cast<std::size_t>(m);
    const std::string key = kModelDefs[mi].key;
    nn::Engine& engine = *o.engines[mi];
    const nn::Graph& graph = engine.graph();
    const double run_ms = span_p50(spans, run_span, m);
    metrics.push_back({"nn.run_ms." + key, run_ms, "ms"});
    metrics.push_back({"nn.gflops." + key, graph.flops() / run_ms * 1e-6,
                       "GFLOP/s"});
    metrics.push_back({"nn.prepare_ms." + key,
                       span_p50(spans, "Engine::prepare", m), "ms"});
    metrics.push_back({"nn.arena_mb." + key,
                       static_cast<double>(engine.plan().arena_peak_bytes_after) /
                           (1024.0 * 1024.0),
                       "MiB"});

    const std::vector<NodeTime> times =
        replay_model(engine, o.request, *in.tensors[0][mi]);
    std::map<nn::OpKind, std::pair<double, double>> by_kind;  // ms, flops
    double total_ms = 0.0, conv_ms = 0.0, conv_est_ms = 0.0;
    for (const NodeTime& t : times) {
      const nn::Node& node = graph.node(t.node);
      auto& [ms, flops] = by_kind[node.kind];
      ms += t.ms;
      flops += graph.node_flops(t.node);
      total_ms += t.ms;
      if (node.kind == nn::OpKind::kConv) {
        conv_ms += t.ms;
        conv_est_ms += engine.plan().nodes[static_cast<std::size_t>(t.node)].est_ms;
      }
    }
    for (const auto& [kind, ms_flops] : by_kind) {  // OpKind order
      const auto& [ms, flops] = ms_flops;
      const std::string prefix = "op." + key + "." + nn::op_name(kind);
      metrics.push_back({prefix + ".ms", ms, "ms"});
      if (has_flops(kind))
        metrics.push_back({prefix + ".gflops", flops / ms * 1e-6, "GFLOP/s"});
    }
    metrics.push_back({"op." + key + ".coverage", total_ms / run_ms, "ratio"});
    metrics.push_back({"op." + key + ".est_error",
                       std::fabs(conv_est_ms / conv_ms - 1.0), "ratio"});

    std::vector<NodeTime> top = times;
    std::sort(top.begin(), top.end(),
              [](const NodeTime& a, const NodeTime& b) { return a.ms > b.ms; });
    top.resize(std::min<std::size_t>(top.size(), kTopNodes));
    std::string rows;
    for (const NodeTime& t : top) {
      const nn::ConvPlan& plan = engine.plan().nodes[static_cast<std::size_t>(t.node)];
      const double gflops = graph.node_flops(t.node) / t.ms * 1e-6;
      rows += (rows.empty() ? "" : ",") +
              JsonObject()
                  .add("node", graph.node(t.node).name)
                  .add("op", node_label(graph.node(t.node), plan))
                  .add("ms", t.ms)
                  .add("share_of_frame", t.ms / run_ms)
                  .add("gflops", gflops)
                  .add("vs_gemm_peak", gflops / kPackedGemmPeakGflops)
                  .add("est_ms", plan.est_ms)
                  .str();
    }
    top_nodes.raw(key, '[' + rows + ']');
  }
  return metrics;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  JsonObject obj;
  for (const Metric& m : metrics)
    obj.raw(m.name,
            JsonObject().add("value", m.value).add("unit", m.unit).str());
  return obj.str();
}

// --- main ---------------------------------------------------------------------

Options parse_options(int argc, char** argv, bool& help) {
  Cli cli("ocb_bench", "End-to-end VIP-frame benchmark (bench/e2e/README.md)");
  cli.add_string("workload", "",
                 "frame_s100 | frame_s025 | stream_8fps | served_burst");
  cli.add_int("seed", 1, "picks the video clip the inputs are rendered from");
  cli.add_double("seconds", 10.0, "length of the measured part of the run");
  cli.add_int("trace", 0, "1: traced run reporting the per-layer metrics");
  cli.add_string("trace-file", "", "Chrome trace-event JSON (traced runs)");
  cli.add_string("out", "", "also write the full result record here");
  cli.add_string("git-sha", "unknown", "commit recorded in the conditions");
  cli.add_flag("smoke", "scale 0.25, one input frame and one set-up");
  help = !cli.parse(argc, argv);
  Options opt;
  if (help) return opt;
  const std::string& name = cli.string("workload");
  const auto it = std::find_if(kWorkloads.begin(), kWorkloads.end(),
                               [&](const Workload& w) { return name == w.name; });
  if (it == kWorkloads.end())
    throw InvalidArgument("unknown --workload '" + name + "'");
  opt.workload = *it;
  opt.seed = static_cast<int>(cli.integer("seed"));
  opt.seconds = cli.real("seconds");
  const std::int64_t trace = cli.integer("trace");
  if (opt.seed < 0 || !(opt.seconds > 0.0) || (trace != 0 && trace != 1))
    throw InvalidArgument("need --seed >= 0, --seconds > 0, --trace 0|1");
  opt.trace = trace == 1;
  opt.trace_file = cli.string("trace-file");
  opt.out = cli.string("out");
  opt.git_sha = cli.string("git-sha");
  opt.smoke = cli.flag("smoke");
  return opt;
}

int run(const Options& opt) {
  // A traced run records ~10 spans per frame, a few thousand in all.
  Tracer tracer(opt.trace, 1u << 16);
  const Inputs in = make_inputs(opt, tracer);
  Outcome o;
  switch (opt.workload.shape) {
    case LoadShape::kClosed: o = run_closed(opt, in, tracer); break;
    case LoadShape::kStream: o = run_stream(opt, in, tracer); break;
    case LoadShape::kServed: o = run_served(opt, in, tracer); break;
  }
  const std::string conditions = conditions_json(opt);
  JsonObject top_nodes;
  const std::vector<Metric> metrics =
      opt.trace ? per_layer_metrics(opt, o, in, tracer, top_nodes)
                : end_to_end_metrics(o);
  o.info.add("spans_lost", static_cast<std::int64_t>(tracer.lost()));

  const bool correct = o.mismatched == 0;
  const std::string result = JsonObject()
                                 .add("correct", correct)
                                 .add("attempted", o.attempted)
                                 .add("failed", o.failed)
                                 .raw("metrics", metrics_json(metrics))
                                 .str();
  if (opt.trace && !opt.trace_file.empty()) {
    std::vector<std::string> names;
    for (const ModelDef& def : kModelDefs) names.push_back(def.key);
    tracer.write_chrome_json(opt.trace_file, names,
                             JsonObject()
                                 .raw("conditions", conditions)
                                 .raw("metrics", metrics_json(metrics))
                                 .raw("top_nodes", top_nodes.str())
                                 .str());
  }
  if (!opt.out.empty()) {
    std::ofstream out(opt.out);
    out << JsonObject()
               .raw("conditions", conditions)
               .raw("info", o.info.str())
               .raw("result", result)
               .str()
        << '\n';
    if (!out) throw IoError("cannot write " + opt.out);
  }

  std::cout << "# ocb_bench " << opt.workload.name << " seed=" << opt.seed
            << (opt.trace ? " traced" : "") << '\n'
            << "# conditions " << conditions << '\n'
            << "# info " << o.info.str() << '\n';
  for (const Metric& m : metrics)
    std::cout << "#   " << std::left << std::setw(34) << m.name << ' '
              << std::setw(14) << json_number(m.value) << ' ' << m.unit << '\n';
  std::cout << result << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ocb::e2e

int main(int argc, char** argv) {
  try {
    bool help = false;
    const ocb::e2e::Options opt = ocb::e2e::parse_options(argc, argv, help);
    return help ? 0 : ocb::e2e::run(opt);
  } catch (const std::exception& e) {
    std::cerr << "ocb_bench: " << e.what() << '\n';
    return 2;
  }
}
