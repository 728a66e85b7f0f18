#include "index/hnsw_index.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <unordered_set>

#include "util/rng.h"

namespace harmony {

namespace {

/// Min-heap on distance for the expansion frontier.
struct Closer {
  bool operator()(const Neighbor& a, const Neighbor& b) const {
    if (a.distance != b.distance) return a.distance > b.distance;
    return a.id > b.id;
  }
};

}  // namespace

Status HnswIndex::Add(const DatasetView& vectors) {
  // m = 1 makes the level multiplier 1/log(1) infinite, and a zero beam
  // leaves the construction search no slot for its entry point.
  if (params_.m < 2) return Status::InvalidArgument("HNSW m must be >= 2");
  if (params_.ef_construction == 0) {
    return Status::InvalidArgument("HNSW ef_construction must be > 0");
  }
  if (vectors.empty()) return Status::OK();
  if (!data_.empty() && vectors.dim() != data_.dim()) {
    return Status::InvalidArgument("dimension mismatch on Add");
  }
  if (level_rng_state_ == 0) level_rng_state_ = params_.seed | 1;
  Rng rng(level_rng_state_);

  const double level_mult = 1.0 / std::log(static_cast<double>(params_.m));
  for (size_t v = 0; v < vectors.size(); ++v) {
    HARMONY_RETURN_NOT_OK(data_.Append(vectors.Row(v), vectors.dim()));
    const size_t node = data_.size() - 1;
    const float* vec = data_.Row(node);

    // Exponentially-distributed level.
    const int level = static_cast<int>(
        -std::log(std::max(1e-12, rng.NextDouble())) * level_mult);
    Node entry;
    entry.level = level;
    entry.neighbors.resize(static_cast<size_t>(level) + 1);
    nodes_.push_back(std::move(entry));

    if (entry_point_ < 0) {
      entry_point_ = static_cast<int32_t>(node);
      max_level_ = level;
      continue;
    }

    // Phase 1: greedy descent through levels above the new node's level.
    int32_t cur = entry_point_;
    for (int l = max_level_; l > level; --l) {
      cur = GreedyStep(vec, cur, l);
    }
    // Phase 2: beam search + connect at each level from min(level,max) to 0.
    for (int l = std::min(level, max_level_); l >= 0; --l) {
      const std::vector<Neighbor> candidates =
          SearchLevel(vec, cur, params_.ef_construction, l);
      const size_t max_m = l == 0 ? params_.m * 2 : params_.m;
      Connect(node, l, candidates, max_m);
      if (!candidates.empty()) {
        cur = static_cast<int32_t>(candidates.front().id);
      }
    }
    if (level > max_level_) {
      max_level_ = level;
      entry_point_ = static_cast<int32_t>(node);
    }
  }
  // Persist RNG progression across Add calls for deterministic rebuilds of
  // identical insertion sequences.
  level_rng_state_ = rng.NextU64() | 1;
  return Status::OK();
}

int32_t HnswIndex::GreedyStep(const float* query, int32_t entry,
                              int level) const {
  int32_t cur = entry;
  float cur_dist = Dist(query, static_cast<size_t>(cur));
  bool improved = true;
  while (improved) {
    improved = false;
    for (const int32_t nb :
         nodes_[static_cast<size_t>(cur)].neighbors[static_cast<size_t>(level)]) {
      const float d = Dist(query, static_cast<size_t>(nb));
      if (d < cur_dist) {
        cur_dist = d;
        cur = nb;
        improved = true;
      }
    }
  }
  return cur;
}

std::vector<Neighbor> HnswIndex::SearchLevel(const float* query, int32_t entry,
                                             size_t ef, int level) const {
  std::priority_queue<Neighbor, std::vector<Neighbor>, Closer> frontier;
  TopKHeap best(ef);
  std::unordered_set<int32_t> visited;

  const float entry_dist = Dist(query, static_cast<size_t>(entry));
  frontier.push({entry, entry_dist});
  best.Push(entry, entry_dist);
  visited.insert(entry);

  while (!frontier.empty()) {
    const Neighbor cur = frontier.top();
    frontier.pop();
    if (best.full() && cur.distance > best.threshold()) break;
    for (const int32_t nb :
         nodes_[static_cast<size_t>(cur.id)].neighbors[static_cast<size_t>(level)]) {
      if (!visited.insert(nb).second) continue;
      const float d = Dist(query, static_cast<size_t>(nb));
      if (!best.full() || d < best.threshold()) {
        frontier.push({nb, d});
        best.Push(nb, d);
      }
    }
  }
  return best.SortedResults();
}

std::vector<int32_t> HnswIndex::SelectNeighbors(
    const float* vec, std::vector<Neighbor> candidates, size_t max_m) const {
  std::sort(candidates.begin(), candidates.end(),
            [](const Neighbor& a, const Neighbor& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.id < b.id;
            });
  // HNSW's diversity heuristic (Algorithm 4): keep a candidate only if it
  // is closer to `vec` than to every already-kept neighbor. This is what
  // preserves long-range edges between clusters — plain closest-first
  // selection disconnects well-separated clusters and strands points with
  // no in-edges.
  std::vector<int32_t> kept;
  std::vector<Neighbor> skipped;
  for (const Neighbor& cand : candidates) {
    if (kept.size() >= max_m) break;
    bool diverse = true;
    for (const int32_t s : kept) {
      const float to_kept = Dist(data_.Row(static_cast<size_t>(cand.id)),
                                 static_cast<size_t>(s));
      if (to_kept < cand.distance) {
        diverse = false;
        break;
      }
    }
    if (diverse) {
      kept.push_back(static_cast<int32_t>(cand.id));
    } else {
      skipped.push_back(cand);
    }
  }
  // keepPrunedConnections: fill the remaining capacity with the closest
  // skipped candidates.
  for (size_t i = 0; i < skipped.size() && kept.size() < max_m; ++i) {
    kept.push_back(static_cast<int32_t>(skipped[i].id));
  }
  (void)vec;
  return kept;
}

void HnswIndex::Connect(size_t node, int level,
                        const std::vector<Neighbor>& candidates,
                        size_t max_m) {
  std::vector<Neighbor> filtered;
  filtered.reserve(candidates.size());
  for (const Neighbor& c : candidates) {
    if (static_cast<size_t>(c.id) != node) filtered.push_back(c);
  }
  auto& my_edges = nodes_[node].neighbors[static_cast<size_t>(level)];
  my_edges = SelectNeighbors(data_.Row(node), filtered, max_m);

  for (const int32_t nb : my_edges) {
    auto& their_edges =
        nodes_[static_cast<size_t>(nb)].neighbors[static_cast<size_t>(level)];
    their_edges.push_back(static_cast<int32_t>(node));
    if (their_edges.size() > max_m) {
      const float* their_vec = data_.Row(static_cast<size_t>(nb));
      std::vector<Neighbor> scored;
      scored.reserve(their_edges.size());
      for (const int32_t e : their_edges) {
        scored.push_back({e, Dist(their_vec, static_cast<size_t>(e))});
      }
      their_edges = SelectNeighbors(their_vec, std::move(scored), max_m);
    }
  }
}

Result<std::vector<Neighbor>> HnswIndex::Search(const float* query, size_t k,
                                                size_t ef) const {
  if (data_.empty()) return Status::FailedPrecondition("index is empty");
  if (k == 0) return Status::InvalidArgument("k must be > 0");
  ef = std::max(ef, k);
  int32_t cur = entry_point_;
  for (int l = max_level_; l > 0; --l) {
    cur = GreedyStep(query, cur, l);
  }
  std::vector<Neighbor> found = SearchLevel(query, cur, ef, 0);
  if (found.size() > k) found.resize(k);
  return found;
}

std::pair<uint64_t, uint64_t> HnswIndex::CrossPartitionEdges(
    size_t num_machines) const {
  uint64_t cross = 0, total = 0;
  if (num_machines == 0) return {0, 0};
  for (size_t n = 0; n < nodes_.size(); ++n) {
    for (const auto& level_edges : nodes_[n].neighbors) {
      for (const int32_t nb : level_edges) {
        ++total;
        if (n % num_machines !=
            static_cast<size_t>(nb) % num_machines) {
          ++cross;
        }
      }
    }
  }
  return {cross, total};
}

size_t HnswIndex::SizeBytes() const {
  size_t bytes = data_.SizeBytes();
  for (const Node& node : nodes_) {
    for (const auto& level_edges : node.neighbors) {
      bytes += level_edges.size() * sizeof(int32_t);
    }
  }
  return bytes;
}

}  // namespace harmony
