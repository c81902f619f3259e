// Span recorder for the end-to-end benchmark's traced runs.
//
// Spans are timed by the benchmark around its calls into the program's
// public API (preprocessing, Engine::run, pipeline stages, server
// batches) and stored in a buffer reserved up front, so recording
// costs two clock reads and a slot claim — no allocation, no lock.
// A disabled recorder (untraced runs) costs one branch per span.
// write_chrome_json() emits Chrome trace-event JSON, which Perfetto
// and chrome://tracing open directly.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace ocb::e2e {

/// The layer a span times; one Perfetto category each.
enum class Layer : std::uint8_t { kImage, kNn, kRuntime };

/// Frame index of set-up work: always recorded by an enabled tracer.
inline constexpr int kSetupFrame = -1;
/// Frame index of warm-up work: never recorded.
inline constexpr int kUntracedFrame = -2;

const char* layer_name(Layer layer) noexcept;

struct Span {
  const char* name = "";  ///< static string
  Layer layer = Layer::kNn;
  int model = -1;         ///< index into the bench's model table, or -1
  int frame = -1;         ///< VIP frame the work belongs to
  int items = 1;          ///< frames served by this call (server batches)
  int thread = 0;         ///< small per-thread id (Perfetto track)
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;

  double ms() const noexcept { return static_cast<double>(end_ns - begin_ns) * 1e-6; }
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  /// `capacity` spans are reserved; spans beyond it are counted as
  /// lost, never reallocated.
  Tracer(bool enabled, std::size_t capacity);

  /// Timed frames are traced when tracing is on and their index is
  /// even. The odd frames run untraced in the same loop, so the traced
  /// run measures its own overhead (see trace.overhead_pct).
  bool traces(int frame) const noexcept {
    return enabled_ &&
           (frame == kSetupFrame || (frame >= 0 && frame % 2 == 0));
  }

  std::int64_t to_ns(Clock::time_point t) const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }
  std::int64_t now_ns() const noexcept { return to_ns(Clock::now()); }

  /// Store a finished span if traces(frame). Thread-safe.
  void record(const char* name, Layer layer, int model, int frame,
              std::int64_t begin_ns, std::int64_t end_ns,
              int items = 1) noexcept;

  /// Recorded spans, valid once every recording thread has finished.
  std::vector<Span> spans() const;
  std::uint64_t lost() const noexcept { return lost_.load(); }

  /// Write every span as a complete ("X") trace event. `model_names`
  /// label the model argument; `other_data_json` is a JSON object
  /// stored under "otherData" (conditions, metrics, top nodes).
  void write_chrome_json(const std::string& path,
                         const std::vector<std::string>& model_names,
                         const std::string& other_data_json) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> slots_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> lost_{0};
};

/// Times a scope and records it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, Layer layer, int model,
             int frame) noexcept
      : tracer_(tracer), name_(name), layer_(layer), model_(model),
        frame_(frame), begin_ns_(tracer.traces(frame) ? tracer.now_ns() : 0) {}
  ~ScopedSpan() {
    if (tracer_.traces(frame_))
      tracer_.record(name_, layer_, model_, frame_, begin_ns_,
                     tracer_.now_ns());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  const char* name_;
  Layer layer_;
  int model_;
  int frame_;
  std::int64_t begin_ns_;
};

}  // namespace ocb::e2e
