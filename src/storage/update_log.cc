#include "storage/update_log.h"

#include <cstdio>
#include <cstring>
#include <memory>

namespace harmony {

namespace {

constexpr char kLogMagic[4] = {'H', 'V', 'U', 'L'};
constexpr uint32_t kLogVersion = 1;
constexpr uint16_t kRecordMarker = 0xA55A;
constexpr uint8_t kRecordVersion = 1;

/// FNV-1a over a byte span: the per-record integrity check.
uint32_t Fnv1a(const uint8_t* data, size_t size) {
  uint32_t h = 2166136261u;
  for (size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 16777619u;
  }
  return h;
}

void PutBytes(std::string* out, const void* p, size_t n) {
  out->append(reinterpret_cast<const char*>(p), n);
}

template <typename T>
void Put(std::string* out, T v) {
  PutBytes(out, &v, sizeof(v));
}

/// Bounds-checked little cursor over the decode buffer; every read that
/// would cross `size` fails instead of touching memory.
struct Reader {
  const uint8_t* data;
  size_t size;
  size_t pos = 0;

  bool ReadBytes(void* out, size_t n) {
    if (n > size - pos) return false;
    std::memcpy(out, data + pos, n);
    pos += n;
    return true;
  }
  template <typename T>
  bool Read(T* out) {
    return ReadBytes(out, sizeof(T));
  }
};

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

}  // namespace

std::string UpdateLogMarker::ToString() const {
  return std::to_string(gen) + "/" + std::to_string(seq);
}

uint64_t UpdateLog::AppendInsert(int64_t id, const float* vec, size_t dim) {
  UpdateRecord rec;
  rec.op = UpdateOp::kInsert;
  rec.seq = tail_.seq;
  rec.gen = tail_.gen;
  rec.id = id;
  rec.vec.assign(vec, vec + dim);
  records_.push_back(std::move(rec));
  return tail_.seq++;
}

uint64_t UpdateLog::AppendDelete(int64_t id) {
  UpdateRecord rec;
  rec.op = UpdateOp::kDelete;
  rec.seq = tail_.seq;
  rec.gen = tail_.gen;
  rec.id = id;
  records_.push_back(std::move(rec));
  return tail_.seq++;
}

void UpdateLog::MarkMerged() {
  ++tail_.gen;
  head_.gen = tail_.gen;
  head_.seq = tail_.seq;
}

void UpdateLog::Compact() {
  size_t keep = 0;
  while (keep < records_.size() && records_[keep].seq < head_.seq) ++keep;
  records_.erase(records_.begin(), records_.begin() + keep);
}

void UpdateLog::EncodeTo(std::string* out) const {
  PutBytes(out, kLogMagic, sizeof(kLogMagic));
  Put(out, kLogVersion);
  Put(out, static_cast<uint64_t>(dim_));
  Put(out, head_.gen);
  Put(out, head_.seq);
  Put(out, tail_.gen);
  Put(out, tail_.seq);
  Put(out, static_cast<uint64_t>(records_.size()));
  for (const UpdateRecord& rec : records_) {
    std::string body;
    Put(&body, kRecordMarker);
    Put(&body, kRecordVersion);
    Put(&body, static_cast<uint8_t>(rec.op));
    Put(&body, rec.seq);
    Put(&body, rec.gen);
    Put(&body, rec.id);
    Put(&body, static_cast<uint32_t>(rec.vec.size()));
    if (!rec.vec.empty()) {
      PutBytes(&body, rec.vec.data(), rec.vec.size() * sizeof(float));
    }
    out->append(body);
    Put(out, Fnv1a(reinterpret_cast<const uint8_t*>(body.data()), body.size()));
  }
}

Result<UpdateLog> UpdateLog::DecodeFrom(const void* data, size_t size) {
  Reader r{static_cast<const uint8_t*>(data), size};
  char magic[4];
  uint32_t version = 0;
  uint64_t dim = 0, count = 0;
  UpdateLog log;
  if (!r.ReadBytes(magic, sizeof(magic)) ||
      std::memcmp(magic, kLogMagic, sizeof(magic)) != 0) {
    return Status::IoError("update log: bad magic");
  }
  if (!r.Read(&version) || version != kLogVersion) {
    return Status::IoError("update log: unsupported version");
  }
  if (!r.Read(&dim) || !r.Read(&log.head_.gen) || !r.Read(&log.head_.seq) ||
      !r.Read(&log.tail_.gen) || !r.Read(&log.tail_.seq) || !r.Read(&count)) {
    return Status::IoError("update log: truncated header");
  }
  if (dim > (1u << 24) || count > (uint64_t{1} << 32)) {
    return Status::IoError("update log: implausible header fields");
  }
  if (log.head_.gen > log.tail_.gen || log.head_.seq > log.tail_.seq) {
    return Status::IoError("update log: head marker past tail");
  }
  log.dim_ = static_cast<size_t>(dim);
  uint64_t prev_seq = 0;
  for (uint64_t i = 0; i < count; ++i) {
    const size_t body_begin = r.pos;
    uint16_t marker = 0;
    uint8_t rec_version = 0, op = 0;
    UpdateRecord rec;
    uint32_t vec_len = 0;
    if (!r.Read(&marker) || marker != kRecordMarker) {
      return Status::IoError("update log: bad record marker at record " +
                             std::to_string(i));
    }
    if (!r.Read(&rec_version) || rec_version != kRecordVersion) {
      return Status::IoError("update log: unsupported record version");
    }
    if (!r.Read(&op) || !r.Read(&rec.seq) || !r.Read(&rec.gen) ||
        !r.Read(&rec.id) || !r.Read(&vec_len)) {
      return Status::IoError("update log: truncated record header");
    }
    if (op != static_cast<uint8_t>(UpdateOp::kInsert) &&
        op != static_cast<uint8_t>(UpdateOp::kDelete)) {
      return Status::IoError("update log: unknown op");
    }
    rec.op = static_cast<UpdateOp>(op);
    if (rec.op == UpdateOp::kInsert ? vec_len != dim : vec_len != 0) {
      return Status::IoError("update log: payload length mismatch");
    }
    if (vec_len > 0) {
      rec.vec.resize(vec_len);
      if (!r.ReadBytes(rec.vec.data(), vec_len * sizeof(float))) {
        return Status::IoError("update log: truncated payload");
      }
    }
    const size_t body_end = r.pos;
    uint32_t checksum = 0;
    if (!r.Read(&checksum) ||
        checksum != Fnv1a(r.data + body_begin, body_end - body_begin)) {
      return Status::IoError("update log: checksum mismatch at record " +
                             std::to_string(i));
    }
    if (rec.seq >= log.tail_.seq || (i > 0 && rec.seq <= prev_seq)) {
      return Status::IoError("update log: sequence numbers not ascending");
    }
    prev_seq = rec.seq;
    log.records_.push_back(std::move(rec));
  }
  if (r.pos != size) {
    return Status::IoError("update log: trailing bytes after last record");
  }
  return log;
}

Status UpdateLog::Save(const std::string& path) const {
  std::string buf;
  EncodeTo(&buf);
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return Status::IoError("cannot open for write: " + path);
  if (std::fwrite(buf.data(), 1, buf.size(), f.get()) != buf.size()) {
    return Status::IoError("short write: " + path);
  }
  return Status::OK();
}

Result<UpdateLog> UpdateLog::Load(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IoError("cannot open for read: " + path);
  std::string buf;
  char chunk[4096];
  size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), f.get())) > 0) {
    buf.append(chunk, got);
  }
  return DecodeFrom(buf.data(), buf.size());
}

}  // namespace harmony
