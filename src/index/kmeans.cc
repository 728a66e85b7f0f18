#include "index/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "index/distance.h"
#include "index/scan_kernel.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace harmony {

namespace {

/// Fixed number of contiguous point ranges the scoring passes are split
/// into. The split depends on n alone — never on the thread count — and
/// partial sums are reduced in ascending range order, so every pool size
/// (including the serial path) produces bit-identical training.
constexpr size_t kAssignRanges = 16;

size_t RangeCount(size_t n) { return std::min<size_t>(kAssignRanges, n); }

/// Runs `fn(r)` for every range, on the pool when one is available.
void ForEachRange(ThreadPool* pool, size_t ranges,
                  const std::function<void(size_t)>& fn) {
  if (pool != nullptr && pool->num_threads() > 1) {
    pool->ParallelFor(ranges, fn);
  } else {
    for (size_t r = 0; r < ranges; ++r) fn(r);
  }
}

// Chooses initial centroids. k-means++ draws each next seed with probability
// proportional to squared distance from the nearest already-chosen seed.
Dataset SeedCentroids(const DatasetView& data, const KMeansParams& params,
                      ThreadPool* pool, Rng* rng) {
  const size_t n = data.size();
  const size_t dim = data.dim();
  const size_t k = params.num_clusters;
  Dataset centroids(k, dim);

  auto copy_row = [&](size_t src, size_t dst) {
    const float* s = data.Row(src);
    float* d = centroids.MutableRow(dst);
    std::copy(s, s + dim, d);
  };

  if (!params.use_kmeanspp) {
    // Random distinct rows (sampling without replacement via partial
    // Fisher-Yates over indices).
    std::vector<int64_t> ids(n);
    for (size_t i = 0; i < n; ++i) ids[i] = static_cast<int64_t>(i);
    for (size_t c = 0; c < k; ++c) {
      const size_t j = c + rng->NextBounded(n - c);
      std::swap(ids[c], ids[j]);
      copy_row(static_cast<size_t>(ids[c]), c);
    }
    return centroids;
  }

  std::vector<float> min_dist_sq(n, std::numeric_limits<float>::max());
  std::vector<float> dist_sq(n);
  const size_t ranges = RangeCount(n);
  size_t first = rng->NextBounded(n);
  copy_row(first, 0);
  for (size_t c = 1; c < k; ++c) {
    const float* prev = centroids.Row(c - 1);
    // The training rows form one contiguous matrix: batched kernel calls
    // score every point against the newest seed. Rows score independently,
    // so splitting the batch across ranges changes no bits; the RNG-driven
    // selection below stays serial in point order.
    ForEachRange(pool, ranges, [&](size_t r) {
      const size_t lo = r * n / ranges;
      const size_t hi = (r + 1) * n / ranges;
      std::fill(dist_sq.begin() + lo, dist_sq.begin() + hi, 0.0f);
      ScanKernels().l2_batch(prev, data.Row(lo), hi - lo, dim,
                             dist_sq.data() + lo);
    });
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (dist_sq[i] < min_dist_sq[i]) min_dist_sq[i] = dist_sq[i];
      total += min_dist_sq[i];
    }
    size_t chosen = 0;
    if (total <= 0.0) {
      chosen = rng->NextBounded(n);
    } else {
      double target = rng->NextDouble() * total;
      for (size_t i = 0; i < n; ++i) {
        target -= min_dist_sq[i];
        if (target <= 0.0) {
          chosen = i;
          break;
        }
      }
    }
    copy_row(chosen, c);
  }
  return centroids;
}

}  // namespace

namespace {

/// Batched scoring of `vec` against every (contiguous) centroid row into
/// `scores`, then the argmin in centroid order — bitwise the same distances
/// and the same tie-breaking as the historical per-centroid loop.
int32_t ArgminCentroid(const DatasetView& centroids, const float* vec,
                       std::vector<float>* scores) {
  scores->assign(centroids.size(), 0.0f);
  ScanKernels().l2_batch(vec, centroids.Row(0), centroids.size(),
                         centroids.dim(), scores->data());
  int32_t best = 0;
  float best_dist = std::numeric_limits<float>::max();
  for (size_t c = 0; c < centroids.size(); ++c) {
    if ((*scores)[c] < best_dist) {
      best_dist = (*scores)[c];
      best = static_cast<int32_t>(c);
    }
  }
  return best;
}

/// One assignment pass: per point the nearest centroid (ArgminCentroid
/// bits), accumulated into per-range partial sums/sizes/inertia that are
/// reduced in ascending range order. `sums` (k*dim) may be null when the
/// caller only needs assignments/sizes/inertia (the final pass).
void AssignPoints(const DatasetView& data, const DatasetView& cent,
                  ThreadPool* pool, int32_t* assignments, double* sums,
                  int64_t* sizes, double* inertia_out) {
  const size_t n = data.size();
  const size_t dim = data.dim();
  const size_t k = cent.size();
  const size_t ranges = RangeCount(n);
  std::vector<double> part_sums(sums != nullptr ? ranges * k * dim : 0, 0.0);
  std::vector<int64_t> part_sizes(ranges * k, 0);
  std::vector<double> part_inertia(ranges, 0.0);

  ForEachRange(pool, ranges, [&](size_t r) {
    const size_t lo = r * n / ranges;
    const size_t hi = (r + 1) * n / ranges;
    std::vector<float> cent_dist(k);
    double* rsums = sums != nullptr ? part_sums.data() + r * k * dim : nullptr;
    int64_t* rsizes = part_sizes.data() + r * k;
    double inertia = 0.0;
    for (size_t i = lo; i < hi; ++i) {
      const float* row = data.Row(i);
      const int32_t best = ArgminCentroid(cent, row, &cent_dist);
      assignments[i] = best;
      ++rsizes[best];
      inertia += cent_dist[static_cast<size_t>(best)];
      if (rsums != nullptr) {
        double* sum = rsums + static_cast<size_t>(best) * dim;
        for (size_t d = 0; d < dim; ++d) sum[d] += row[d];
      }
    }
    part_inertia[r] = inertia;
  });

  std::fill(sizes, sizes + k, 0);
  if (sums != nullptr) std::fill(sums, sums + k * dim, 0.0);
  double inertia = 0.0;
  for (size_t r = 0; r < ranges; ++r) {
    inertia += part_inertia[r];
    const int64_t* rsizes = part_sizes.data() + r * k;
    for (size_t c = 0; c < k; ++c) sizes[c] += rsizes[c];
    if (sums != nullptr) {
      const double* rsums = part_sums.data() + r * k * dim;
      for (size_t j = 0; j < k * dim; ++j) sums[j] += rsums[j];
    }
  }
  *inertia_out = inertia;
}

}  // namespace

int32_t NearestCentroid(const DatasetView& centroids, const float* vec) {
  thread_local std::vector<float> scores;
  return ArgminCentroid(centroids, vec, &scores);
}

Result<KMeansResult> TrainKMeans(const DatasetView& data,
                                 const KMeansParams& params) {
  const size_t n = data.size();
  const size_t dim = data.dim();
  const size_t k = params.num_clusters;
  if (k == 0) return Status::InvalidArgument("num_clusters must be > 0");
  if (n < k) {
    return Status::InvalidArgument(
        "k-means needs at least num_clusters points; got " +
        std::to_string(n) + " < " + std::to_string(k));
  }

  // The pool is shared by seeding, the Lloyd iterations and the final
  // assignment pass; with num_threads <= 1 no pool is created and every
  // pass runs serially over the same fixed ranges (same bits).
  std::unique_ptr<ThreadPool> pool;
  if (params.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(params.num_threads);
  }

  Rng rng(params.seed);
  KMeansResult result;
  result.centroids = SeedCentroids(data, params, pool.get(), &rng);
  result.assignments.assign(n, 0);
  result.cluster_sizes.assign(k, 0);

  std::vector<double> sums(k * dim, 0.0);
  double prev_inertia = std::numeric_limits<double>::max();

  for (size_t iter = 0; iter < std::max<size_t>(1, params.max_iters); ++iter) {
    result.iterations_run = iter + 1;
    // Assignment step: per point, one batched kernel call over the
    // (contiguous) centroid rows, then the argmin in centroid order.
    double inertia = 0.0;
    const DatasetView cent = result.centroids.View();
    AssignPoints(data, cent, pool.get(), result.assignments.data(),
                 sums.data(), result.cluster_sizes.data(), &inertia);
    result.inertia = inertia;

    // Update step; re-seed empty clusters from the globally farthest point.
    for (size_t c = 0; c < k; ++c) {
      if (result.cluster_sizes[c] == 0) {
        size_t far_i = 0;
        float far_d = -1.0f;
        for (size_t i = 0; i < n; ++i) {
          const float d =
              L2SqDistance(cent.Row(static_cast<size_t>(result.assignments[i])),
                           data.Row(i), dim);
          if (d > far_d) {
            far_d = d;
            far_i = i;
          }
        }
        const float* src = data.Row(far_i);
        float* dst = result.centroids.MutableRow(c);
        std::copy(src, src + dim, dst);
        continue;
      }
      const double inv = 1.0 / static_cast<double>(result.cluster_sizes[c]);
      const double* sum = sums.data() + c * dim;
      float* dst = result.centroids.MutableRow(c);
      for (size_t d = 0; d < dim; ++d) {
        dst[d] = static_cast<float>(sum[d] * inv);
      }
    }

    if (prev_inertia < std::numeric_limits<double>::max()) {
      const double rel =
          prev_inertia > 0.0 ? (prev_inertia - inertia) / prev_inertia : 0.0;
      if (rel >= 0.0 && rel < params.tolerance) break;
    }
    prev_inertia = inertia;
  }

  // Final assignment pass so assignments match the returned centroids.
  const DatasetView cent = result.centroids.View();
  double inertia = 0.0;
  AssignPoints(data, cent, pool.get(), result.assignments.data(),
               /*sums=*/nullptr, result.cluster_sizes.data(), &inertia);
  result.inertia = inertia;
  return result;
}

}  // namespace harmony
