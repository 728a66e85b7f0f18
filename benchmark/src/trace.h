#ifndef HARMONY_BENCHMARK_TRACE_H_
#define HARMONY_BENCHMARK_TRACE_H_

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/status.h"

namespace harmony {
namespace wallclock {

/// One timed call into a layer, recorded by the load-generator thread around
/// the public function it calls. `layer` and `name` point at string literals.
struct Span {
  const char* layer = "";
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;   ///< Index of the enclosing span, -1 at top level.
  int64_t request = -1;  ///< Batch / group / write id; shared by its spans.
};

/// Per-layer totals: the summed span time and the self time (span time
/// minus the part its child spans cover).
struct LayerTime {
  std::string layer;
  size_t calls = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// \brief In-memory span recorder, written out once at exit. Single
/// threaded: only the load-generator thread records. While recording is off,
/// Begin returns -1 and End ignores it, so untraced code pays one branch.
class Tracer {
 public:
  Tracer();

  bool recording() const { return recording_; }
  void set_recording(bool on) { recording_ = on; }

  /// Opens a span nested in the innermost open one; -1 when not recording.
  int32_t Begin(const char* layer, const char* name, int64_t request);
  void End(int32_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (ms) of the spans named `layer.name` among span indices
  /// [begin, end).
  std::vector<double> DurationsMs(
      const std::string& full_name, size_t begin = 0,
      size_t end = std::numeric_limits<size_t>::max()) const;

  std::vector<LayerTime> SelfTimes() const;

  /// Chrome trace-event JSON ("X" events, microsecond timestamps); span
  /// index, parent and request id ride in each event's args.
  Status WriteChromeJson(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point origin_;
  bool recording_ = false;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span: opens in the constructor, closes in the destructor.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* layer, const char* name,
             int64_t request = -1)
      : tracer_(tracer), id_(tracer->Begin(layer, name, request)) {}
  ~ScopedSpan() { tracer_->End(id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

}  // namespace wallclock
}  // namespace harmony

#endif  // HARMONY_BENCHMARK_TRACE_H_
