#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>

#include "core/error.hpp"

namespace ocb::e2e {
namespace {

int thread_slot() noexcept {
  static std::atomic<int> next{1};
  thread_local const int id = next.fetch_add(1);
  return id;
}

}  // namespace

const char* layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::kImage: return "image";
    case Layer::kNn: return "nn";
    case Layer::kRuntime: return "runtime";
  }
  return "?";
}

Tracer::Tracer(bool enabled, std::size_t capacity)
    : enabled_(enabled), origin_(Clock::now()),
      slots_(enabled ? capacity : 0) {}

void Tracer::record(const char* name, Layer layer, int model, int frame,
                    std::int64_t begin_ns, std::int64_t end_ns,
                    int items) noexcept {
  if (!traces(frame)) return;
  const std::size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= slots_.size()) {
    lost_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  slots_[slot] = Span{name, layer, model, frame, items, thread_slot(),
                      begin_ns, end_ns};
}

std::vector<Span> Tracer::spans() const {
  const std::size_t n = std::min(next_.load(), slots_.size());
  return {slots_.begin(), slots_.begin() + static_cast<std::ptrdiff_t>(n)};
}

void Tracer::write_chrome_json(const std::string& path,
                               const std::vector<std::string>& model_names,
                               const std::string& other_data_json) const {
  std::ofstream out(path);
  if (!out) throw IoError("cannot write trace file " + path);
  out << std::fixed << std::setprecision(3);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const Span& s : spans()) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":\"" << s.name << "\",\"cat\":\"" << layer_name(s.layer)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
        << ",\"ts\":" << static_cast<double>(s.begin_ns) * 1e-3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.begin_ns) * 1e-3
        << ",\"args\":{\"frame\":" << s.frame << ",\"items\":" << s.items;
    if (s.model >= 0 && static_cast<std::size_t>(s.model) < model_names.size())
      out << ",\"model\":\"" << model_names[static_cast<std::size_t>(s.model)]
          << '"';
    out << "}}";
  }
  out << "\n],\"otherData\":" << other_data_json << "}\n";
  if (!out) throw IoError("short write to trace file " + path);
}

}  // namespace ocb::e2e
