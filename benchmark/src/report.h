#ifndef HARMONY_BENCHMARK_REPORT_H_
#define HARMONY_BENCHMARK_REPORT_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

namespace harmony {
namespace wallclock {

/// Quantile by linear interpolation between closest ranks (the same
/// definition as numpy's default); 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

struct MetricValue {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// \brief Everything one run reports: the end-to-end metrics (every run),
/// the per-layer metrics (traced runs), the correctness checks, and the
/// operation tallies. failed counts non-OK statuses, failed checks, and
/// shed or degraded queries on these fault-free workloads.
struct Report {
  std::vector<MetricValue> end_to_end;
  std::vector<MetricValue> per_layer;
  std::vector<Check> checks;
  size_t attempted = 0;
  size_t failed = 0;

  void AddEndToEnd(const std::string& name, double value,
                   const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void AddLayer(const std::string& name, double value,
                const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  /// Records a correctness check; a failed check is a failed operation.
  void AddCheck(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back({name, ok, detail});
    ++attempted;
    if (!ok) ++failed;
  }
  bool correct() const {
    for (const Check& c : checks) {
      if (!c.ok) return false;
    }
    return failed == 0;
  }
};

}  // namespace wallclock
}  // namespace harmony

#endif  // HARMONY_BENCHMARK_REPORT_H_
