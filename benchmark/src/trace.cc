#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace harmony {
namespace wallclock {

Tracer::Tracer() : origin_(Clock::now()) {}

int32_t Tracer::Begin(const char* layer, const char* name, int64_t request) {
  if (!recording_) return -1;
  Span span;
  span.layer = layer;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - origin_)
                      .count();
  spans_.push_back(span);
  const int32_t id = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::End(int32_t id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  // Spans close in LIFO order (they are scoped), so `id` is the top.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> Tracer::DurationsMs(const std::string& full_name,
                                        size_t begin, size_t end) const {
  std::vector<double> out;
  for (size_t i = begin; i < std::min(end, spans_.size()); ++i) {
    const Span& s = spans_[i];
    if (std::string(s.layer) + "." + s.name == full_name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
    }
  }
  return out;
}

std::vector<LayerTime> Tracer::SelfTimes() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, LayerTime> by_layer;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    LayerTime& t = by_layer[s.layer];
    t.layer = s.layer;
    ++t.calls;
    const int64_t dur = s.end_ns - s.start_ns;
    t.total_ms += static_cast<double>(dur) * 1e-6;
    t.self_ms += static_cast<double>(dur - child_ns[i]) * 1e-6;
  }
  std::vector<LayerTime> out;
  for (auto& [layer, t] : by_layer) out.push_back(t);
  std::sort(out.begin(), out.end(), [](const LayerTime& a, const LayerTime& b) {
    return a.self_ms > b.self_ms;
  });
  return out;
}

Status Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot open trace file " + path);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s.%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                 "\"args\":{\"id\":%zu,\"parent\":%d,\"request\":%lld}}\n",
                 i == 0 ? "" : ",", s.layer, s.name, s.layer,
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                 s.parent, static_cast<long long>(s.request));
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0) return Status::IoError("cannot write " + path);
  return Status::OK();
}

}  // namespace wallclock
}  // namespace harmony
