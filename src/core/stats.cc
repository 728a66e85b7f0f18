#include "core/stats.h"

#include <algorithm>
#include <sstream>

#include "workload/ground_truth.h"

namespace harmony {

std::string FaultStats::ToString() const {
  std::ostringstream os;
  os << "faults{dropped=" << messages_dropped << " retries=" << retries
     << " blocks_lost=" << blocks_lost << " shards_lost=" << shards_lost
     << " failovers=" << failovers << " hedged=" << hedged
     << " degraded_queries=" << degraded_queries;
  if (degraded_recall >= 0.0) os << " degraded_recall=" << degraded_recall;
  os << "}";
  return os.str();
}

double RecallOverFlagged(const std::vector<std::vector<Neighbor>>& results,
                         const std::vector<uint8_t>& flagged,
                         const std::vector<std::vector<Neighbor>>& ground_truth,
                         size_t k) {
  double total = 0.0;
  size_t n = 0;
  const size_t limit = std::min({results.size(), flagged.size(),
                                 ground_truth.size()});
  for (size_t q = 0; q < limit; ++q) {
    if (flagged[q] == 0) continue;
    total += RecallAtK(results[q], ground_truth[q], k);
    ++n;
  }
  return n > 0 ? total / static_cast<double>(n) : -1.0;
}

double PruneStats::PruneRatioAt(size_t position) const {
  if (total_candidates == 0 || position >= dropped_after.size()) return 0.0;
  uint64_t skipped = 0;
  for (size_t p = 0; p < position; ++p) skipped += dropped_after[p];
  return static_cast<double>(skipped) / static_cast<double>(total_candidates);
}

double PruneStats::AveragePruneRatio() const {
  if (dropped_after.empty()) return 0.0;
  double total = 0.0;
  for (size_t j = 0; j < dropped_after.size(); ++j) total += PruneRatioAt(j);
  return total / static_cast<double>(dropped_after.size());
}

void PruneStats::Merge(const PruneStats& other) {
  if (dropped_after.size() < other.dropped_after.size()) {
    dropped_after.resize(other.dropped_after.size(), 0);
  }
  for (size_t p = 0; p < other.dropped_after.size(); ++p) {
    dropped_after[p] += other.dropped_after[p];
  }
  total_candidates += other.total_candidates;
}

std::string BatchStats::ToString() const {
  std::ostringstream os;
  os << "batch{q=" << num_queries << " qps=" << qps
     << " makespan=" << makespan_seconds * 1e3 << "ms "
     << breakdown.ToString() << " avg_prune=" << prune.AveragePruneRatio();
  if (faults.any()) os << " " << faults.ToString();
  os << "}";
  return os.str();
}

}  // namespace harmony
