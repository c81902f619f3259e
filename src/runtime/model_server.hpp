// Multi-model serving scheduler with dynamic micro-batching.
//
// Ocularone's workload is a *suite* of DNNs sharing one accelerator:
// VIP vest detection, body pose and depth contend for the same device
// every frame (§IV / Table 3). The streaming pipeline gives each stage
// a private executor; ModelServer is the layer underneath that owns
// the engines and multiplexes them:
//
//  * Priority classes — safety-critical detection preempts pose, pose
//    preempts depth, matching the paper's hazard hierarchy. Workers
//    always dispatch the highest-priority model with a ready batch.
//  * Dynamic micro-batching — same-model requests arriving within a
//    deadline window coalesce into one batched Engine::run_batch (one
//    widened GEMM per conv layer), amortising per-layer dispatch the
//    way CUDA batching amortises kernel launches.
//  * Admission control — each model has a bounded request queue with
//    the streaming DropPolicy semantics, and a degrade/cooldown/probe
//    state machine mirroring the stage watchdog: a model whose batch
//    overruns its budget answers requests immediately (kDegraded)
//    for a cooldown, then probes the runner again.
//
// Requests resolve through std::future; a request is never lost —
// dropped or degraded submissions resolve with the matching outcome.
// Telemetry per model (queue depth, batch sizes, queue/batch/serve
// latency histograms) folds into a ServerReport.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/thread_annotations.hpp"

#include "devsim/roofline.hpp"
#include "nn/engine.hpp"
#include "nn/profile.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/executor.hpp"
#include "runtime/stream_queue.hpp"
#include "runtime/telemetry.hpp"

namespace ocb::runtime {

/// Scheduling class; lower value dispatches first. The paper's hazard
/// hierarchy: VIP/vest detection > pose > depth.
enum class ServePriority { kCritical = 0, kHigh = 1, kNormal = 2 };

const char* serve_priority_name(ServePriority priority) noexcept;

enum class ServeOutcome {
  kOk,        ///< inference ran, payload attached
  kDegraded,  ///< bypassed: the model is cooling down after a timeout
  kDropped,   ///< rejected by admission control or server shutdown
};

const char* serve_outcome_name(ServeOutcome outcome) noexcept;

/// One frame's inference request.
struct ServeRequest {
  int frame = 0;
  /// Input tensor for runners that execute a real engine; simulated
  /// runners ignore it.
  std::shared_ptr<const Tensor> input;
};

/// Resolution of a request. Times are stream-clock milliseconds.
struct ServeResult {
  ServeOutcome outcome = ServeOutcome::kDropped;
  int frame = 0;
  int batch_size = 0;    ///< size of the micro-batch this frame rode in
  double queue_ms = 0.0; ///< admission -> dispatch
  double run_ms = 0.0;   ///< the batch's runner latency
  double serve_ms = 0.0; ///< admission -> resolution
  std::shared_ptr<void> payload;
};

/// Executes one micro-batch for a model. Implementations must be
/// callable from any server worker, but the server serialises calls
/// per model (one in-flight batch), so they need no internal locking.
class BatchRunner {
 public:
  struct BatchOutput {
    /// One payload per request, in request order (may be empty).
    std::vector<std::shared_ptr<void>> payloads;
    /// Stream-clock latency of the whole batch, ms.
    double batch_ms = 0.0;
  };

  virtual ~BatchRunner() = default;
  virtual BatchOutput run(const std::vector<ServeRequest>& batch) = 0;

  /// Post-batch health verdict (DESIGN.md §14). Called by the worker
  /// after run(), outside the server lock; false counts a health
  /// strike towards quarantine (ServedModelConfig::quarantine_after).
  /// Default: stateless runners are always healthy.
  virtual bool healthy() { return true; }
  /// Recovery probe for a quarantined model: repair internal state
  /// (re-pack corrupted panels, reload weights) and report fitness.
  virtual bool reload() { return true; }
};

/// Real inference: feeds the batch through nn::Engine::run_batch (one
/// widened GEMM per conv) and reports measured wall time. The engine
/// must outlive the runner; prepare(PlanRequest{max_batch}) is applied
/// at construction (preserving the engine's prepared precision).
/// Payloads are shared_ptr<std::vector<Tensor>> — the engine outputs
/// for that frame, identical to what run(frame) yields.
class EngineBatchRunner final : public BatchRunner {
 public:
  /// `integrity` wires the checksum layer into serving health:
  /// healthy() sweeps the engine's packed panels (detection-only)
  /// every integrity.verify_every batches, and reload() re-packs
  /// failing nodes from the master weights then re-verifies. The
  /// default (verify_every = 0) keeps both as unconditional passes.
  EngineBatchRunner(nn::Engine& engine, int max_batch,
                    nn::IntegrityConfig integrity = {});
  BatchOutput run(const std::vector<ServeRequest>& batch) override;
  bool healthy() override;
  bool reload() override;

 private:
  nn::Engine* engine_;
  nn::IntegrityConfig integrity_{};
  int batches_since_verify_ = 0;
};

/// Roofline-modelled inference on a devsim device. Batch latency
/// amortises per-kernel launch and pays the host-side frame overhead
/// once per micro-batch:
///   batch_ms(B) = B * layers_ms(batch=B) + frame_overhead_ms
/// Payload per frame: shared_ptr<double> holding batch_ms / B.
struct SimulatedBatchModel {
  nn::ModelProfile profile;
  devsim::DeviceSpec device;
  /// Precision knobs; batch / include_frame_overhead are overridden.
  devsim::RooflineOptions options{};
  /// > 0: occupy the worker slot for batch_ms * scale real ms, so the
  /// scheduler experiences the modelled contention (cf. the streaming
  /// runtime's emulate_occupancy + time_scale).
  double occupancy_time_scale = 0.0;
};

class SimulatedBatchRunner final : public BatchRunner {
 public:
  explicit SimulatedBatchRunner(SimulatedBatchModel model);
  BatchOutput run(const std::vector<ServeRequest>& batch) override;

  /// The modelled latency of a batch of `size`, stream-clock ms.
  double modeled_batch_ms(int size) const;

 private:
  SimulatedBatchModel model_;
};

/// Per-model serving policy.
struct ServedModelConfig {
  std::string name;
  ServePriority priority = ServePriority::kNormal;
  int max_batch = 4;            ///< micro-batch ceiling (>= 1)
  /// How long the head request may wait for co-arriving requests
  /// before the batch dispatches anyway (stream-clock ms; 0 = eager).
  double batch_window_ms = 2.0;
  std::size_t queue_capacity = 8;  ///< admission bound (> 0)
  DropPolicy admission = DropPolicy::kBlock;
  /// Degrade when a batch's per-frame latency exceeds this budget
  /// (stream-clock ms; 0 disables the watchdog machinery).
  double timeout_ms = 0.0;
  /// Requests answered kDegraded before the next batch probes again.
  int degraded_cooldown = 8;
  /// Quarantine after this many consecutive unhealthy batches
  /// (BatchRunner::healthy() == false): the model degrades for
  /// `degraded_cooldown` requests, then the next batch is preceded by
  /// a BatchRunner::reload() probe before re-admission. 0 disables.
  int quarantine_after = 0;
};

/// One model's serving telemetry.
struct ModelServeTelemetry {
  std::string name;
  ServePriority priority = ServePriority::kNormal;
  std::uint64_t submitted = 0;  ///< requests offered to admission
  std::uint64_t completed = 0;  ///< requests resolved kOk
  std::uint64_t dropped = 0;    ///< requests resolved kDropped
  std::uint64_t degraded = 0;   ///< requests resolved kDegraded (bypass)
  std::uint64_t timeouts = 0;   ///< batches over the latency budget
  std::uint64_t unhealthy_batches = 0;  ///< healthy() == false verdicts
  std::uint64_t quarantines = 0;        ///< quarantine entries
  std::uint64_t reloads = 0;            ///< reload() probes attempted
  std::uint64_t batches = 0;    ///< runner invocations
  std::uint64_t batched_frames = 0;  ///< sum of batch sizes
  std::size_t largest_batch = 0;
  std::size_t queue_high_water = 0;
  std::size_t queue_capacity = 0;
  LatencyRecorder queue_ms;  ///< admission -> dispatch, per request
  LatencyRecorder batch_ms;  ///< runner latency, per batch
  LatencyRecorder serve_ms;  ///< admission -> resolution, per request

  double mean_batch() const noexcept {
    return batches ? static_cast<double>(batched_frames) /
                         static_cast<double>(batches)
                   : 0.0;
  }
};

/// Whole-server snapshot.
struct ServerReport {
  std::vector<ModelServeTelemetry> models;
  double wall_ms = 0.0;  ///< stream-clock ms since server start

  std::string to_text() const;
  std::string to_json() const;
};

struct ServerConfig {
  /// Concurrent batch slots. 1 models a single accelerator: batches
  /// from different models serialise, which is exactly the concurrent-
  /// execution contention the paper measures.
  std::size_t workers = 1;
  /// Real seconds per stream second (cf. StreamConfig::time_scale).
  /// Recorded queue/serve durations divide by this; batch windows
  /// multiply by it. Use < 1 with occupancy-emulating simulated
  /// runners to replay a modelled timeline quickly.
  double time_scale = 1.0;
  /// Worker host; nullptr gives the server a private pool of
  /// `workers` threads. A shared pool must be sized generously:
  /// server workers occupy their threads for the server's lifetime.
  ThreadPool* pool = nullptr;
};

class ModelServer {
 public:
  explicit ModelServer(ServerConfig config = {});
  ~ModelServer();

  ModelServer(const ModelServer&) = delete;
  ModelServer& operator=(const ModelServer&) = delete;

  /// Register a model; returns its handle for submit(). Models may be
  /// added while the server runs.
  int add_model(ServedModelConfig config, std::unique_ptr<BatchRunner> runner);

  /// Enqueue a request. The future always resolves: kOk with payload,
  /// kDegraded (cooldown bypass, immediate), or kDropped (admission
  /// rejection or shutdown). kBlock admission waits for queue room.
  std::future<ServeResult> submit(int model, ServeRequest request);

  /// submit + wait.
  ServeResult serve(int model, ServeRequest request);

  /// Block until every queue is empty and no batch is in flight.
  /// Pending batch windows are cut short (batches dispatch eagerly).
  void drain();

  /// Stop accepting requests, drain in-flight work, and release the
  /// workers. Idempotent; the destructor calls it. OCB_CHECKs the
  /// no-lost-requests invariant after the workers join: every
  /// submitted request resolved as exactly one of ok/dropped/degraded.
  void shutdown();

  /// Snapshot of per-model telemetry.
  ServerReport report() const;

  const ServerConfig& config() const noexcept { return config_; }
  std::size_t model_count() const;

 private:
  struct Pending;
  struct Model;

  void worker_loop() OCB_EXCLUDES(mutex_);
  /// Highest-priority model with a dispatchable batch; also reports
  /// the earliest future batch-window expiry.
  Model* pick_ready(std::chrono::steady_clock::time_point now,
                    std::chrono::steady_clock::time_point& next_deadline)
      OCB_REQUIRES(mutex_);

  ServerConfig config_;
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;
  std::vector<std::future<void>> workers_;  // joined by the first shutdown()
  std::chrono::steady_clock::time_point start_;

  mutable Mutex mutex_;
  CondVar work_cv_;  ///< workers: a batch may be ready
  CondVar room_cv_;  ///< kBlock submitters: queue room
  CondVar idle_cv_;  ///< drain(): server went idle
  std::vector<std::unique_ptr<Model>> models_ OCB_GUARDED_BY(mutex_);
  std::size_t in_flight_ OCB_GUARDED_BY(mutex_) = 0;
  bool draining_ OCB_GUARDED_BY(mutex_) = false;
  bool stopping_ OCB_GUARDED_BY(mutex_) = false;
};

/// Pipeline-stage adapter: forwards every frame to a ModelServer model
/// and blocks on the outcome, so StreamingPipeline stages share
/// engines — and micro-batches — behind the server. `input` (optional)
/// is attached to every request for engine-backed runners.
class ServedExecutor final : public Executor {
 public:
  ServedExecutor(ModelServer& server, int model, std::string name,
                 std::shared_ptr<const Tensor> input = nullptr);
  FrameResult run(const FrameContext& ctx) override;
  const std::string& name() const noexcept override { return name_; }

 private:
  ModelServer* server_;
  int model_;
  std::string name_;
  std::shared_ptr<const Tensor> input_;
};

}  // namespace ocb::runtime
