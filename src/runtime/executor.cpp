#include "runtime/executor.hpp"

#include <chrono>
#include <utility>
#include <vector>

namespace ocb::runtime {

const char* stage_status_name(StageStatus status) noexcept {
  switch (status) {
    case StageStatus::kOk: return "ok";
    case StageStatus::kDegraded: return "degraded";
    case StageStatus::kSkipped: return "skipped";
  }
  return "?";
}

HostExecutor::HostExecutor(const nn::Graph& graph, std::string name,
                           std::uint64_t seed)
    : engine_(graph, seed), name_(std::move(name)) {
  // Time the program's default plan, not the constructor's unplanned
  // baseline (dense im2col stripes on every conv).
  engine_.prepare(nn::PlanRequest{});
  const nn::FeatShape in = graph.input_shape();
  input_ = Tensor({1, in.c, in.h, in.w});
  Rng rng(seed);
  input_.init_uniform(rng, 0.0f, 1.0f);
}

FrameResult HostExecutor::run(const FrameContext&) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<Tensor> outputs = engine_.run(input_);
  const auto stop = std::chrono::steady_clock::now();
  FrameResult result;
  result.latency_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  result.stage = name_;
  result.payload =
      std::make_shared<std::vector<Tensor>>(std::move(outputs));
  return result;
}

SimulatedExecutor::SimulatedExecutor(nn::ModelProfile profile,
                                     devsim::DeviceSpec device,
                                     std::uint64_t seed,
                                     devsim::RooflineOptions options,
                                     devsim::JitterModel jitter)
    : profile_(std::move(profile)),
      device_(std::move(device)),
      options_(options),
      jitter_(jitter),
      rng_(seed),
      base_ms_(devsim::model_latency_ms(profile_, device_, options_)),
      name_(profile_.model_name + "@" + device_.short_name) {}

FrameResult SimulatedExecutor::run(const FrameContext&) {
  double latency = base_ms_ * rng_.lognormal(0.0, jitter_.sigma);
  if (frame_ < jitter_.warmup_frames)
    latency *= jitter_.warmup_scale;
  else if (rng_.bernoulli(jitter_.straggler_prob))
    latency *= jitter_.straggler_scale;
  ++frame_;
  FrameResult result;
  result.latency_ms = latency;
  result.stage = name_;
  return result;
}

Summary benchmark_executor(Executor& executor, int frames) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(frames));
  FrameContext ctx;
  for (int i = 0; i < frames; ++i) {
    ctx.index = i;
    samples.push_back(executor.run(ctx).latency_ms);
  }
  return summarize(samples);
}

}  // namespace ocb::runtime
