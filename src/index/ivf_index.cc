#include "index/ivf_index.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>

#include "index/scan_kernel.h"
#include "util/rng.h"
#include "util/timer.h"

namespace harmony {

namespace {

constexpr char kIvfMagic[5] = {'H', 'I', 'V', 'F', '1'};

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

template <typename T>
bool WritePod(std::FILE* f, const T& v) {
  return std::fwrite(&v, sizeof(T), 1, f) == 1;
}

template <typename T>
bool ReadPod(std::FILE* f, T* v) {
  return std::fread(v, sizeof(T), 1, f) == 1;
}

template <typename T>
bool WriteVec(std::FILE* f, const std::vector<T>& v) {
  const uint64_t n = v.size();
  if (!WritePod(f, n)) return false;
  return v.empty() || std::fwrite(v.data(), sizeof(T), v.size(), f) == v.size();
}

template <typename T>
bool ReadVec(std::FILE* f, std::vector<T>* v) {
  uint64_t n = 0;
  if (!ReadPod(f, &n)) return false;
  v->resize(n);
  return v->empty() || std::fread(v->data(), sizeof(T), n, f) == n;
}

}  // namespace

Status IvfIndex::Train(const DatasetView& data) {
  if (trained()) return Status::FailedPrecondition("index already trained");
  if (data.size() < params_.nlist) {
    return Status::InvalidArgument("need at least nlist training points");
  }
  StopWatch watch;
  KMeansParams km;
  km.num_clusters = params_.nlist;
  km.max_iters = params_.train_iters;
  km.seed = params_.seed;
  km.num_threads = params_.train_threads;
  // For large nlist, k-means++ seeding dominates training time without
  // improving IVF recall much; fall back to random seeding.
  km.use_kmeanspp = params_.nlist <= 256;

  Result<KMeansResult> trained_result = [&]() -> Result<KMeansResult> {
    if (params_.max_train_points > 0 && data.size() > params_.max_train_points) {
      Rng rng(params_.seed ^ 0xABCDEF);
      std::vector<int64_t> ids(data.size());
      for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int64_t>(i);
      rng.Shuffle(&ids);
      ids.resize(params_.max_train_points);
      Dataset sample(ids.size(), data.dim());
      for (size_t i = 0; i < ids.size(); ++i) {
        const float* src = data.Row(static_cast<size_t>(ids[i]));
        std::copy(src, src + data.dim(), sample.MutableRow(i));
      }
      return TrainKMeans(sample.View(), km);
    }
    return TrainKMeans(data, km);
  }();
  if (!trained_result.ok()) return trained_result.status();

  centroids_ = std::move(trained_result.value().centroids);
  list_ids_.assign(params_.nlist, {});
  list_vectors_.assign(params_.nlist, Dataset());
  build_stats_.train_seconds = watch.ElapsedSeconds();
  return Status::OK();
}

Status IvfIndex::Add(const DatasetView& data) {
  if (!trained()) return Status::FailedPrecondition("Train() must run first");
  if (data.dim() != dim()) {
    return Status::InvalidArgument("dimension mismatch on Add");
  }
  StopWatch watch;
  const DatasetView cent = centroids_.View();
  for (size_t i = 0; i < data.size(); ++i) {
    const int32_t list = NearestCentroid(cent, data.Row(i));
    const int64_t id = static_cast<int64_t>(num_vectors_ + i);
    list_ids_[static_cast<size_t>(list)].push_back(id);
    HARMONY_RETURN_NOT_OK(list_vectors_[static_cast<size_t>(list)].Append(
        data.Row(i), data.dim()));
  }
  num_vectors_ += data.size();
  build_stats_.add_seconds += watch.ElapsedSeconds();
  return Status::OK();
}

Status IvfIndex::AddAssigned(int32_t list_id, int64_t id, const float* vec,
                             size_t dim) {
  if (!trained()) return Status::FailedPrecondition("Train() must run first");
  if (dim != this->dim()) {
    return Status::InvalidArgument("dimension mismatch on AddAssigned");
  }
  if (list_id < 0 || static_cast<size_t>(list_id) >= nlist()) {
    return Status::InvalidArgument("list id out of range");
  }
  if (id < 0) return Status::InvalidArgument("negative global id");
  list_ids_[static_cast<size_t>(list_id)].push_back(id);
  HARMONY_RETURN_NOT_OK(
      list_vectors_[static_cast<size_t>(list_id)].Append(vec, dim));
  ++num_vectors_;
  return Status::OK();
}

size_t IvfIndex::RemoveIds(const uint64_t* bits, size_t words) {
  if (bits == nullptr || words == 0) return 0;
  const auto is_set = [bits, words](int64_t id) {
    if (id < 0) return false;
    const size_t word = static_cast<size_t>(id) >> 6;
    if (word >= words) return false;
    return ((bits[word] >> (static_cast<size_t>(id) & 63)) & 1u) != 0;
  };
  size_t removed = 0;
  for (size_t l = 0; l < nlist(); ++l) {
    std::vector<int64_t>& ids = list_ids_[l];
    bool any = false;
    for (const int64_t id : ids) {
      if (is_set(id)) {
        any = true;
        break;
      }
    }
    if (!any) continue;
    const DatasetView old_vecs = list_vectors_[l].View();
    std::vector<int64_t> kept_ids;
    Dataset kept_vecs;
    kept_ids.reserve(ids.size());
    kept_vecs = Dataset(std::vector<float>(), dim());
    for (size_t r = 0; r < ids.size(); ++r) {
      if (is_set(ids[r])) {
        ++removed;
        continue;
      }
      kept_ids.push_back(ids[r]);
      (void)kept_vecs.Append(old_vecs.Row(r), dim());
    }
    list_ids_[l] = std::move(kept_ids);
    list_vectors_[l] = std::move(kept_vecs);
  }
  num_vectors_ -= removed;
  return removed;
}

std::vector<int32_t> IvfIndex::ProbeLists(const float* query,
                                          size_t nprobe) const {
  const size_t k = std::min(nprobe, nlist());
  // Centroid rows are contiguous, so one batched kernel call scores all of
  // them; selection is then a partial top-nprobe (nth_element + sort of the
  // selected prefix) instead of ordering the whole scored set. Ties break
  // by list id, matching the historical (distance, id) partial sort.
  std::vector<float> scores(nlist(), 0.0f);
  ScanKernels().l2_batch(query, centroids_.Row(0), nlist(), dim(),
                         scores.data());
  std::vector<int32_t> out(nlist());
  std::iota(out.begin(), out.end(), 0);
  const auto nearer = [&scores](int32_t a, int32_t b) {
    const float da = scores[static_cast<size_t>(a)];
    const float db = scores[static_cast<size_t>(b)];
    if (da != db) return da < db;
    return a < b;
  };
  if (k < nlist()) {
    std::nth_element(out.begin(), out.begin() + static_cast<long>(k),
                     out.end(), nearer);
    out.resize(k);
  }
  std::sort(out.begin(), out.end(), nearer);
  return out;
}

Result<std::vector<Neighbor>> IvfIndex::Search(const float* query, size_t k,
                                               size_t nprobe) const {
  if (!trained()) return Status::FailedPrecondition("index not trained");
  if (num_vectors_ == 0) return Status::FailedPrecondition("index empty");
  if (k == 0 || nprobe == 0) {
    return Status::InvalidArgument("k and nprobe must be > 0");
  }
  TopKHeap heap(k);
  const ScanKernelTable& kt = ScanKernels();
  const bool use_l2 = metric() == Metric::kL2;
  std::vector<float> scores;
  for (const int32_t list : ProbeLists(query, nprobe)) {
    const auto& ids = list_ids_[static_cast<size_t>(list)];
    if (ids.empty()) continue;
    // A list's vectors are one contiguous row-major matrix: score the whole
    // list with one batched kernel call, then feed the heap in row order
    // (push order and distances are identical to the per-row path).
    const DatasetView vecs = ListVectors(static_cast<size_t>(list));
    scores.assign(ids.size(), 0.0f);
    if (use_l2) {
      kt.l2_batch(query, vecs.Row(0), ids.size(), dim(), scores.data());
    } else {
      kt.ip_batch(query, vecs.Row(0), ids.size(), dim(), scores.data());
    }
    for (size_t i = 0; i < ids.size(); ++i) {
      heap.Push(ids[i], use_l2 ? scores[i] : -scores[i]);
    }
  }
  return heap.SortedResults();
}

std::vector<int64_t> IvfIndex::ListSizes() const {
  std::vector<int64_t> sizes(nlist());
  for (size_t c = 0; c < nlist(); ++c) {
    sizes[c] = static_cast<int64_t>(list_ids_[c].size());
  }
  return sizes;
}

size_t IvfIndex::SizeBytes() const {
  size_t bytes = centroids_.SizeBytes();
  for (size_t c = 0; c < nlist(); ++c) {
    bytes += list_vectors_[c].SizeBytes();
    bytes += list_ids_[c].size() * sizeof(int64_t);
  }
  return bytes;
}

Status IvfIndex::Save(const std::string& path) const {
  if (!trained()) return Status::FailedPrecondition("index not trained");
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return Status::IoError("cannot open for write: " + path);
  bool ok = std::fwrite(kIvfMagic, 1, sizeof(kIvfMagic), f.get()) ==
            sizeof(kIvfMagic);
  ok = ok && WritePod(f.get(), static_cast<uint64_t>(params_.nlist));
  ok = ok && WritePod(f.get(), static_cast<int32_t>(params_.metric));
  ok = ok && WritePod(f.get(), static_cast<uint64_t>(params_.seed));
  ok = ok && WritePod(f.get(), static_cast<uint64_t>(dim()));
  ok = ok && WritePod(f.get(), static_cast<uint64_t>(num_vectors_));
  ok = ok && WriteVec(f.get(), centroids_.raw());
  for (size_t l = 0; ok && l < nlist(); ++l) {
    ok = ok && WriteVec(f.get(), list_ids_[l]);
    ok = ok && WriteVec(f.get(), list_vectors_[l].raw());
  }
  return ok ? Status::OK() : Status::IoError("short write: " + path);
}

Result<IvfIndex> IvfIndex::Load(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IoError("cannot open for read: " + path);
  char magic[sizeof(kIvfMagic)];
  if (std::fread(magic, 1, sizeof(magic), f.get()) != sizeof(magic) ||
      std::memcmp(magic, kIvfMagic, sizeof(magic)) != 0) {
    return Status::IoError("bad magic in " + path);
  }
  uint64_t nlist = 0, seed = 0, dim = 0, num_vectors = 0;
  int32_t metric = 0;
  if (!ReadPod(f.get(), &nlist) || !ReadPod(f.get(), &metric) ||
      !ReadPod(f.get(), &seed) || !ReadPod(f.get(), &dim) ||
      !ReadPod(f.get(), &num_vectors)) {
    return Status::IoError("truncated header: " + path);
  }
  if (nlist == 0 || dim == 0) {
    return Status::IoError("corrupt header in " + path);
  }
  IvfParams params;
  params.nlist = static_cast<size_t>(nlist);
  params.metric = static_cast<Metric>(metric);
  params.seed = seed;
  IvfIndex index(params);
  std::vector<float> centroid_data;
  if (!ReadVec(f.get(), &centroid_data) ||
      centroid_data.size() != nlist * dim) {
    return Status::IoError("truncated centroids: " + path);
  }
  index.centroids_ = Dataset(std::move(centroid_data),
                             static_cast<size_t>(dim));
  index.list_ids_.resize(params.nlist);
  index.list_vectors_.resize(params.nlist);
  uint64_t total = 0;
  for (size_t l = 0; l < params.nlist; ++l) {
    std::vector<float> vec_data;
    if (!ReadVec(f.get(), &index.list_ids_[l]) ||
        !ReadVec(f.get(), &vec_data)) {
      return Status::IoError("truncated list " + std::to_string(l) + ": " +
                             path);
    }
    if (vec_data.size() != index.list_ids_[l].size() * dim) {
      return Status::IoError("list size mismatch in " + path);
    }
    total += index.list_ids_[l].size();
    index.list_vectors_[l] = Dataset(std::move(vec_data),
                                     static_cast<size_t>(dim));
  }
  if (total != num_vectors) {
    return Status::IoError("vector count mismatch in " + path);
  }
  index.num_vectors_ = static_cast<size_t>(num_vectors);
  return index;
}

}  // namespace harmony
