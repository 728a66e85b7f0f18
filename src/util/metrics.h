#ifndef HARMONY_UTIL_METRICS_H_
#define HARMONY_UTIL_METRICS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace harmony {

/// \brief Streaming summary of a series of samples (count/mean/min/max/
/// stddev). Cheap enough for per-query latency accounting.
class RunningStat {
 public:
  void Add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  int64_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  double sum() const { return sum_; }
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }

  void Reset() { *this = RunningStat(); }

 private:
  int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 1e300;
  double max_ = -1e300;
};

}  // namespace harmony

#endif  // HARMONY_UTIL_METRICS_H_
