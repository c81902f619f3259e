#include "runtime/model_server.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <thread>
#include <utility>

#include "core/error.hpp"
#include "core/thread_annotations.hpp"

namespace ocb::runtime {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

void append_fixed(std::ostringstream& os, double v, int precision = 2) {
  os << std::fixed << std::setprecision(precision) << v;
}

void append_recorder_json(std::ostringstream& os, const char* key,
                          const LatencyRecorder& rec) {
  os << '"' << key << "\":{\"count\":" << rec.count() << ",\"mean_ms\":";
  append_fixed(os, rec.mean(), 3);
  os << ",\"p50_ms\":";
  append_fixed(os, rec.p50(), 3);
  os << ",\"p95_ms\":";
  append_fixed(os, rec.p95(), 3);
  os << ",\"p99_ms\":";
  append_fixed(os, rec.p99(), 3);
  os << ",\"max_ms\":";
  append_fixed(os, rec.max(), 3);
  os << '}';
}

std::string escape_json(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

const char* serve_priority_name(ServePriority priority) noexcept {
  switch (priority) {
    case ServePriority::kCritical: return "critical";
    case ServePriority::kHigh: return "high";
    case ServePriority::kNormal: return "normal";
  }
  return "?";
}

const char* serve_outcome_name(ServeOutcome outcome) noexcept {
  switch (outcome) {
    case ServeOutcome::kOk: return "ok";
    case ServeOutcome::kDegraded: return "degraded";
    case ServeOutcome::kDropped: return "dropped";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Runners

EngineBatchRunner::EngineBatchRunner(nn::Engine& engine, int max_batch,
                                     nn::IntegrityConfig integrity)
    : engine_(&engine), integrity_(integrity) {
  OCB_CHECK_MSG(max_batch >= 1, "EngineBatchRunner needs max_batch >= 1");
  // Route through the unified planning entry point, keeping whatever
  // precision the caller prepared the engine with.
  nn::PlanRequest request;
  request.max_batch = max_batch;
  request.precision = engine_->precision();
  engine_->prepare(request);
}

bool EngineBatchRunner::healthy() {
  if (integrity_.verify_every <= 0) return true;
  if (++batches_since_verify_ < integrity_.verify_every) return true;
  batches_since_verify_ = 0;
  // Detection only: recovery is reload()'s job, so the server's
  // strike/quarantine accounting sees the corruption first.
  return engine_->verify_weights(/*recover=*/false) == 0;
}

bool EngineBatchRunner::reload() {
  // Re-pack every failing node from the master weights, then prove the
  // repair took with a second (detection-only) sweep.
  engine_->verify_weights(/*recover=*/true);
  return engine_->verify_weights(/*recover=*/false) == 0;
}

BatchRunner::BatchOutput EngineBatchRunner::run(
    const std::vector<ServeRequest>& batch) {
  OCB_CHECK_MSG(!batch.empty(), "empty batch");
  std::vector<Tensor> inputs;
  inputs.reserve(batch.size());
  for (const ServeRequest& r : batch) {
    OCB_CHECK_MSG(r.input != nullptr,
                  "EngineBatchRunner request carries no input tensor");
    inputs.push_back(*r.input);
  }
  const auto t0 = Clock::now();
  const std::span<const std::vector<Tensor>> outputs =
      engine_->run_batch(inputs);
  const auto t1 = Clock::now();
  BatchOutput out;
  out.batch_ms = elapsed_ms(t0, t1);
  out.payloads.reserve(outputs.size());
  for (const auto& frame_outputs : outputs) {
    // The span aliases engine storage that the next batch overwrites;
    // payloads hand the caller an owning snapshot.
    out.payloads.push_back(
        std::make_shared<std::vector<Tensor>>(frame_outputs));
  }
  return out;
}

SimulatedBatchRunner::SimulatedBatchRunner(SimulatedBatchModel model)
    : model_(std::move(model)) {}

double SimulatedBatchRunner::modeled_batch_ms(int size) const {
  devsim::RooflineOptions options = model_.options;
  options.batch = size;
  options.include_frame_overhead = false;
  // layer_latency_ms amortises launch overhead over the batch and
  // returns per-frame time; the batch pays B of those plus one host
  // round-trip for the whole micro-batch.
  const double per_frame_ms =
      devsim::model_latency_ms(model_.profile, model_.device, options);
  return per_frame_ms * size + model_.device.frame_overhead_ms;
}

BatchRunner::BatchOutput SimulatedBatchRunner::run(
    const std::vector<ServeRequest>& batch) {
  OCB_CHECK_MSG(!batch.empty(), "empty batch");
  const int size = static_cast<int>(batch.size());
  BatchOutput out;
  out.batch_ms = modeled_batch_ms(size);
  if (model_.occupancy_time_scale > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        out.batch_ms * model_.occupancy_time_scale));
  }
  out.payloads.assign(batch.size(),
                      std::make_shared<double>(out.batch_ms / size));
  return out;
}

// ---------------------------------------------------------------------------
// ModelServer

struct ModelServer::Pending {
  ServeRequest request;
  std::promise<ServeResult> promise;
  Clock::time_point enqueued;
};

struct ModelServer::Model {
  ServedModelConfig config;
  std::unique_ptr<BatchRunner> runner;
  std::deque<Pending> queue;
  bool running = false;  ///< a batch is in flight (per-model serialisation)
  bool degraded = false;
  int cooldown_left = 0;
  int health_strikes = 0;    ///< consecutive unhealthy batches
  bool quarantined = false;  ///< next batch must pass a reload() probe
  /// kBlock submitters parked in room_cv_: counted so the shutdown
  /// accounting can see requests that are submitted but neither queued
  /// nor resolved yet.
  std::size_t blocked = 0;
  ModelServeTelemetry telemetry;
};

ModelServer::ModelServer(ServerConfig config) : config_(config) {
  OCB_CHECK_MSG(config_.workers >= 1, "server needs at least one worker");
  OCB_CHECK_MSG(config_.time_scale > 0.0, "time_scale must be positive");
  if (config_.pool == nullptr) {
    owned_pool_ = std::make_unique<ThreadPool>(config_.workers);
    pool_ = owned_pool_.get();
  } else {
    pool_ = config_.pool;
  }
  start_ = Clock::now();
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.push_back(pool_->submit([this] { worker_loop(); }));
  }
}

ModelServer::~ModelServer() { shutdown(); }

int ModelServer::add_model(ServedModelConfig config,
                           std::unique_ptr<BatchRunner> runner) {
  OCB_CHECK_MSG(runner != nullptr, "model needs a runner");
  OCB_CHECK_MSG(config.max_batch >= 1, "max_batch must be >= 1");
  OCB_CHECK_MSG(config.queue_capacity >= 1, "queue_capacity must be >= 1");
  OCB_CHECK_MSG(config.batch_window_ms >= 0.0,
                "batch_window_ms must be >= 0");
  auto model = std::make_unique<Model>();
  model->config = std::move(config);
  model->runner = std::move(runner);
  model->telemetry.name = model->config.name;
  model->telemetry.priority = model->config.priority;
  model->telemetry.queue_capacity = model->config.queue_capacity;
  MutexLock lock(mutex_);
  OCB_CHECK_MSG(!stopping_, "add_model after shutdown");
  models_.push_back(std::move(model));
  return static_cast<int>(models_.size()) - 1;
}

std::size_t ModelServer::model_count() const {
  MutexLock lock(mutex_);
  return models_.size();
}

std::future<ServeResult> ModelServer::submit(int id, ServeRequest request) {
  std::promise<ServeResult> promise;
  std::future<ServeResult> future = promise.get_future();

  // Outcomes that resolve without dispatching carry the promise out of
  // the critical section; promises are fulfilled only after the lock
  // is released so a woken waiter never contends with us.
  bool resolve_immediately = false;
  ServeOutcome immediate_outcome = ServeOutcome::kDropped;
  bool have_evicted = false;
  std::promise<ServeResult> evicted_promise;
  int evicted_frame = 0;

  {
    MutexLock lock(mutex_);
    OCB_CHECK_MSG(id >= 0 && static_cast<std::size_t>(id) < models_.size(),
                  "unknown model handle");
    Model& m = *models_[static_cast<std::size_t>(id)];
    ++m.telemetry.submitted;

    if (stopping_) {
      ++m.telemetry.dropped;
      resolve_immediately = true;
      immediate_outcome = ServeOutcome::kDropped;
    } else if (m.degraded && m.cooldown_left > 0) {
      // Degraded cooldown: answer immediately without touching the
      // runner, exactly like a degraded streaming stage bypassing its
      // executor.
      --m.cooldown_left;
      ++m.telemetry.degraded;
      resolve_immediately = true;
      immediate_outcome = ServeOutcome::kDegraded;
    } else {
      // Admission control.
      bool admitted = true;
      if (m.queue.size() >= m.config.queue_capacity) {
        switch (m.config.admission) {
          case DropPolicy::kDropNewest:
            ++m.telemetry.dropped;
            resolve_immediately = true;
            immediate_outcome = ServeOutcome::kDropped;
            admitted = false;
            break;
          case DropPolicy::kDropOldest: {
            Pending evicted = std::move(m.queue.front());
            m.queue.pop_front();
            ++m.telemetry.dropped;
            have_evicted = true;
            evicted_promise = std::move(evicted.promise);
            evicted_frame = evicted.request.frame;
            break;
          }
          case DropPolicy::kBlock:
            ++m.blocked;
            room_cv_.wait(mutex_, [this, &m]() OCB_REQUIRES(mutex_) {
              return stopping_ ||
                     m.queue.size() < m.config.queue_capacity;
            });
            --m.blocked;
            if (stopping_) {
              ++m.telemetry.dropped;
              resolve_immediately = true;
              immediate_outcome = ServeOutcome::kDropped;
              admitted = false;
            }
            break;
        }
      }
      if (admitted) {
        m.queue.push_back(
            Pending{std::move(request), std::move(promise), Clock::now()});
        m.telemetry.queue_high_water =
            std::max(m.telemetry.queue_high_water, m.queue.size());
      }
    }
  }

  if (have_evicted) {
    ServeResult r;
    r.outcome = ServeOutcome::kDropped;
    r.frame = evicted_frame;
    evicted_promise.set_value(std::move(r));
  }
  if (resolve_immediately) {
    ServeResult r;
    r.outcome = immediate_outcome;
    r.frame = request.frame;
    promise.set_value(std::move(r));
    return future;
  }
  work_cv_.notify_one();
  return future;
}

ServeResult ModelServer::serve(int id, ServeRequest request) {
  return submit(id, std::move(request)).get();
}

ModelServer::Model* ModelServer::pick_ready(Clock::time_point now,
                                            Clock::time_point& next_deadline) {
  Model* pick = nullptr;
  for (auto& up : models_) {
    Model& m = *up;
    if (m.running || m.queue.empty()) continue;
    const auto window = std::chrono::duration<double, std::milli>(
        m.config.batch_window_ms * config_.time_scale);
    const auto mature =
        m.queue.front().enqueued +
        std::chrono::duration_cast<Clock::duration>(window);
    const bool ready =
        stopping_ || draining_ ||
        m.queue.size() >= static_cast<std::size_t>(m.config.max_batch) ||
        now >= mature;
    if (!ready) {
      next_deadline = std::min(next_deadline, mature);
      continue;
    }
    if (pick == nullptr || m.config.priority < pick->config.priority ||
        (m.config.priority == pick->config.priority &&
         m.queue.front().enqueued < pick->queue.front().enqueued)) {
      pick = &m;
    }
  }
  return pick;
}

void ModelServer::worker_loop() {
  mutex_.lock();
  for (;;) {
    auto next_deadline = Clock::time_point::max();
    Model* m = pick_ready(Clock::now(), next_deadline);
    if (m == nullptr) {
      if (stopping_) break;
      if (next_deadline == Clock::time_point::max()) {
        work_cv_.wait(mutex_);
      } else {
        work_cv_.wait_until(mutex_, next_deadline);
      }
      continue;
    }

    const std::size_t take =
        std::min(m->queue.size(),
                 static_cast<std::size_t>(m->config.max_batch));
    OCB_DCHECK_MSG(take >= 1, "pick_ready returned a model with no work");
    std::vector<Pending> batch;
    batch.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(m->queue.front()));
      m->queue.pop_front();
    }
    m->running = true;
    const bool probing = m->quarantined;
    const bool quarantine_on = m->config.quarantine_after > 0;
    ++in_flight_;
    mutex_.unlock();
    room_cv_.notify_all();

    // Model objects are owned by unique_ptr and never destroyed before
    // shutdown, so `m` stays valid across the unlocked batch run. The
    // per-model serialisation (m->running) means the runner — including
    // the reload probe and health verdict — is never entered
    // concurrently, so it needs no locking of its own.
    std::vector<ServeRequest> requests;
    requests.reserve(batch.size());
    for (Pending& p : batch) requests.push_back(p.request);
    bool reload_ok = true;
    if (probing) reload_ok = m->runner->reload();
    const auto dispatch = Clock::now();
    BatchRunner::BatchOutput out = m->runner->run(requests);
    const auto done = Clock::now();
    const bool batch_healthy =
        !quarantine_on || (reload_ok && m->runner->healthy());

    mutex_.lock();
    const double per_frame_ms = out.batch_ms / static_cast<double>(take);
    const bool timed_out =
        m->config.timeout_ms > 0.0 && per_frame_ms > m->config.timeout_ms;
    ModelServeTelemetry& t = m->telemetry;
    ++t.batches;
    t.batched_frames += take;
    t.largest_batch = std::max(t.largest_batch, take);
    t.batch_ms.add(out.batch_ms);
    for (const Pending& p : batch) {
      t.queue_ms.add(elapsed_ms(p.enqueued, dispatch) / config_.time_scale);
      t.serve_ms.add(elapsed_ms(p.enqueued, done) / config_.time_scale);
      ++t.completed;
    }
    if (probing) ++t.reloads;
    if (quarantine_on) {
      if (!batch_healthy) {
        // A failed checksum sweep (or failed reload probe) is a health
        // strike; enough consecutive strikes — or any failure while
        // already quarantined — (re-)enters quarantine: the model
        // degrades for the cooldown, then the next batch re-probes.
        ++t.unhealthy_batches;
        if (m->quarantined ||
            ++m->health_strikes >= m->config.quarantine_after) {
          m->health_strikes = 0;
          m->quarantined = true;
          ++t.quarantines;
          m->degraded = true;
          m->cooldown_left = m->config.degraded_cooldown;
        }
      } else {
        m->health_strikes = 0;
        m->quarantined = false;  // probe passed: re-admit
      }
    }
    if (timed_out) {
      ++t.timeouts;
      m->degraded = true;
      m->cooldown_left = m->config.degraded_cooldown;
    } else if (m->degraded && !m->quarantined) {
      m->degraded = false;  // successful probe: resume normal service
    }
    m->running = false;
    --in_flight_;
    mutex_.unlock();

    for (std::size_t i = 0; i < batch.size(); ++i) {
      ServeResult r;
      r.outcome = ServeOutcome::kOk;
      r.frame = batch[i].request.frame;
      r.batch_size = static_cast<int>(take);
      r.queue_ms =
          elapsed_ms(batch[i].enqueued, dispatch) / config_.time_scale;
      r.run_ms = out.batch_ms;
      r.serve_ms = elapsed_ms(batch[i].enqueued, done) / config_.time_scale;
      if (i < out.payloads.size()) r.payload = std::move(out.payloads[i]);
      batch[i].promise.set_value(std::move(r));
    }
    work_cv_.notify_all();
    idle_cv_.notify_all();
    mutex_.lock();
  }
  mutex_.unlock();
}

void ModelServer::drain() {
  MutexLock lock(mutex_);
  draining_ = true;
  work_cv_.notify_all();
  idle_cv_.wait(mutex_, [this]() OCB_REQUIRES(mutex_) {
    if (in_flight_ != 0) return false;
    for (const auto& m : models_)
      if (!m->queue.empty()) return false;
    return true;
  });
  draining_ = false;
}

void ModelServer::shutdown() {
  {
    MutexLock lock(mutex_);
    if (stopping_) {
      // Already shut down (or shutting down on another thread): the
      // worker futures below are waited on by the first caller.
      return;
    }
    stopping_ = true;
  }
  work_cv_.notify_all();
  room_cv_.notify_all();
  // Workers treat stopping_ as "dispatch everything, then exit", so
  // queued requests drain rather than drop.
  for (auto& w : workers_) w.wait();
  workers_.clear();

  // No-lost-requests invariant: with the workers joined, every request
  // a client ever submitted must have resolved as exactly one of
  // ok/dropped/degraded — except kBlock submitters still parked in
  // room_cv_, which are counted in `blocked` and resolve as dropped
  // the moment they wake.
  MutexLock lock(mutex_);
  OCB_CHECK_MSG(in_flight_ == 0, "shutdown with a batch still in flight");
  for (const auto& m : models_) {
    OCB_CHECK_MSG(m->queue.empty(),
                  "shutdown left queued requests for model '" +
                      m->config.name + "'");
    const ModelServeTelemetry& t = m->telemetry;
    OCB_CHECK_MSG(
        t.submitted ==
            t.completed + t.dropped + t.degraded + m->blocked,
        "model '" + m->config.name + "' lost requests at shutdown: " +
            std::to_string(t.submitted) + " submitted vs " +
            std::to_string(t.completed) + " ok + " +
            std::to_string(t.dropped) + " dropped + " +
            std::to_string(t.degraded) + " degraded + " +
            std::to_string(m->blocked) + " blocked");
  }
}

ServerReport ModelServer::report() const {
  MutexLock lock(mutex_);
  ServerReport report;
  report.models.reserve(models_.size());
  for (const auto& m : models_) report.models.push_back(m->telemetry);
  report.wall_ms = elapsed_ms(start_, Clock::now()) / config_.time_scale;
  return report;
}

// ---------------------------------------------------------------------------
// Reports

std::string ServerReport::to_text() const {
  std::ostringstream os;
  os << std::fixed;
  os << "server: " << models.size() << " models, wall "
     << std::setprecision(0) << wall_ms << " ms\n";
  os << "  model                 prio       req    ok   drop   degr  t/o  "
        "batches  avg-b  q-hwm   q-p50  srv-p50  srv-p99  (ms)\n";
  for (const ModelServeTelemetry& m : models) {
    os << "  " << std::left << std::setw(20) << m.name << std::right
       << std::setw(9) << serve_priority_name(m.priority) << std::setw(7)
       << m.submitted << std::setw(6) << m.completed << std::setw(7)
       << m.dropped << std::setw(7) << m.degraded << std::setw(5)
       << m.timeouts << std::setw(9) << m.batches << std::setw(7)
       << std::setprecision(1) << m.mean_batch() << std::setw(5)
       << m.queue_high_water << '/' << m.queue_capacity << std::setw(8)
       << std::setprecision(1) << m.queue_ms.p50() << std::setw(9)
       << m.serve_ms.p50() << std::setw(9) << m.serve_ms.p99() << '\n';
  }
  return os.str();
}

std::string ServerReport::to_json() const {
  std::ostringstream os;
  os << "{\"wall_ms\":";
  append_fixed(os, wall_ms, 1);
  os << ",\"models\":[";
  for (std::size_t i = 0; i < models.size(); ++i) {
    const ModelServeTelemetry& m = models[i];
    if (i) os << ',';
    os << "{\"name\":\"" << escape_json(m.name) << "\",\"priority\":\""
       << serve_priority_name(m.priority) << "\",\"submitted\":" << m.submitted
       << ",\"completed\":" << m.completed << ",\"dropped\":" << m.dropped
       << ",\"degraded\":" << m.degraded << ",\"timeouts\":" << m.timeouts
       << ",\"unhealthy_batches\":" << m.unhealthy_batches
       << ",\"quarantines\":" << m.quarantines << ",\"reloads\":" << m.reloads
       << ",\"batches\":" << m.batches
       << ",\"batched_frames\":" << m.batched_frames
       << ",\"largest_batch\":" << m.largest_batch << ",\"mean_batch\":";
    append_fixed(os, m.mean_batch(), 2);
    os << ",\"queue_high_water\":" << m.queue_high_water
       << ",\"queue_capacity\":" << m.queue_capacity << ',';
    append_recorder_json(os, "queue", m.queue_ms);
    os << ',';
    append_recorder_json(os, "batch", m.batch_ms);
    os << ',';
    append_recorder_json(os, "serve", m.serve_ms);
    os << '}';
  }
  os << "]}";
  return os.str();
}

// ---------------------------------------------------------------------------
// ServedExecutor

ServedExecutor::ServedExecutor(ModelServer& server, int model,
                               std::string name,
                               std::shared_ptr<const Tensor> input)
    : server_(&server),
      model_(model),
      name_(std::move(name)),
      input_(std::move(input)) {}

FrameResult ServedExecutor::run(const FrameContext& ctx) {
  ServeRequest request;
  request.frame = ctx.index;
  request.input = input_;
  ServeResult r = server_->serve(model_, std::move(request));
  FrameResult out;
  out.stage = name_;
  out.latency_ms = r.serve_ms;
  switch (r.outcome) {
    case ServeOutcome::kOk: out.status = StageStatus::kOk; break;
    case ServeOutcome::kDegraded: out.status = StageStatus::kDegraded; break;
    case ServeOutcome::kDropped: out.status = StageStatus::kSkipped; break;
  }
  out.payload = std::move(r.payload);
  return out;
}

}  // namespace ocb::runtime
