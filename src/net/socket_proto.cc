#include "net/socket_proto.h"

#include <cstring>

namespace harmony {
namespace {

/// Bounds-checked word cursor over a decoded message payload — the
/// update_log.cc decode discipline applied to RPC bodies: every read is
/// range-checked first and failure is a Status, never UB.
class WordReader {
 public:
  WordReader(const uint32_t* words, size_t size) : words_(words), size_(size) {}

  size_t remaining() const { return size_ - pos_; }

  Result<uint32_t> U32(const char* what) {
    if (pos_ >= size_) return Truncated(what);
    return words_[pos_++];
  }

  Result<uint64_t> U64(const char* what) {
    if (size_ - pos_ < 2) return Truncated(what);
    const uint64_t lo = words_[pos_];
    const uint64_t hi = words_[pos_ + 1];
    pos_ += 2;
    return lo | (hi << 32);
  }

  Result<float> F32(const char* what) {
    if (pos_ >= size_) return Truncated(what);
    float f;
    std::memcpy(&f, &words_[pos_++], sizeof(f));
    return f;
  }

  /// Copies `n` raw words into `out` (element size 4).
  Status Span32(void* out, size_t n, const char* what) {
    if (remaining() < n) return Truncated(what);
    if (n == 0) return Status::OK();
    std::memcpy(out, words_ + pos_, n * sizeof(uint32_t));
    pos_ += n;
    return Status::OK();
  }

  /// Copies `n` 64-bit values (2 words each, lo/hi) into `out`.
  Status Span64(void* out, size_t n, const char* what) {
    if (remaining() < 2 * n) return Truncated(what);
    if (n == 0) return Status::OK();
    std::memcpy(out, words_ + pos_, n * sizeof(uint64_t));
    pos_ += 2 * n;
    return Status::OK();
  }

  /// Rejects trailing garbage: a well-formed message is consumed exactly.
  Status ExpectEnd(const char* what) const {
    if (pos_ != size_) {
      return Status::IoError(std::string(what) + ": " +
                             std::to_string(size_ - pos_) +
                             " trailing payload words");
    }
    return Status::OK();
  }

 private:
  Status Truncated(const char* what) const {
    return Status::IoError(std::string("truncated message: missing ") + what);
  }

  const uint32_t* words_;
  size_t size_;
  size_t pos_ = 0;
};

void PutU32(uint32_t v, std::vector<uint32_t>* out) { out->push_back(v); }

void PutU64(uint64_t v, std::vector<uint32_t>* out) {
  out->push_back(static_cast<uint32_t>(v));
  out->push_back(static_cast<uint32_t>(v >> 32));
}

void PutF32(float v, std::vector<uint32_t>* out) {
  uint32_t w;
  std::memcpy(&w, &v, sizeof(w));
  out->push_back(w);
}

// The span helpers skip the memcpy for n == 0: an empty column's data()
// may be null, and memcpy from or to null is undefined even for 0 bytes.
void PutSpan32(const void* data, size_t n, std::vector<uint32_t>* out) {
  if (n == 0) return;
  const size_t base = out->size();
  out->resize(base + n);
  std::memcpy(out->data() + base, data, n * sizeof(uint32_t));
}

void PutSpan64(const void* data, size_t n, std::vector<uint32_t>* out) {
  if (n == 0) return;
  const size_t base = out->size();
  out->resize(base + 2 * n);
  std::memcpy(out->data() + base, data, n * sizeof(uint64_t));
}

Status CheckField(const char* name, uint64_t expected, uint64_t got) {
  if (expected == got) return Status::OK();
  return Status::FailedPrecondition(
      std::string("handshake mismatch on ") + name + ": expected " +
      std::to_string(expected) + ", peer has " + std::to_string(got));
}

/// The one request encoder both public forms forward to.
void EncodeRequestWords(const StageScanHeader& head, const float* q_slice,
                        size_t q_words, const int32_t* lists,
                        size_t num_lists, size_t count, const int64_t* id,
                        const int32_t* list, const int32_t* row,
                        const float* partial, const float* rem_p_sq,
                        std::vector<uint32_t>* out) {
  out->clear();
  out->reserve(10 + q_words + num_lists +
               count * (5 + (head.use_norms ? 1 : 0)));
  PutU32(head.machine, out);
  PutU32(head.vec_shard, out);
  PutU32(head.dim_block, out);
  PutU32(head.metric, out);
  const uint32_t flags = (head.prune ? 1u : 0u) | (head.use_norms ? 2u : 0u) |
                         (head.use_batched ? 4u : 0u);
  PutU32(flags, out);
  PutF32(head.tau, out);
  PutF32(head.rem_q_sq, out);
  PutU32(head.width, out);
  PutU32(static_cast<uint32_t>(num_lists), out);
  PutU32(static_cast<uint32_t>(count), out);
  PutSpan32(q_slice, q_words, out);
  PutSpan32(lists, num_lists, out);
  PutSpan64(id, count, out);
  PutSpan32(list, count, out);
  PutSpan32(row, count, out);
  PutSpan32(partial, count, out);
  if (head.use_norms) PutSpan32(rem_p_sq, count, out);
}

}  // namespace

void EncodeHello(const WorkerHello& hello, std::vector<uint32_t>* out) {
  out->clear();
  out->reserve(11);
  PutU32(hello.version, out);
  PutU32(hello.worker_id, out);
  PutU32(hello.num_workers, out);
  PutU32(hello.num_machines, out);
  PutU32(hello.replication, out);
  PutU32(hello.b_dim, out);
  PutU32(hello.dim, out);
  PutU64(hello.generation, out);
  PutU64(hello.digest, out);
}

Result<WorkerHello> DecodeHello(const std::vector<uint32_t>& payload) {
  WordReader r(payload.data(), payload.size());
  WorkerHello h;
  HARMONY_ASSIGN_OR_RETURN(h.version, r.U32("hello version"));
  HARMONY_ASSIGN_OR_RETURN(h.worker_id, r.U32("hello worker_id"));
  HARMONY_ASSIGN_OR_RETURN(h.num_workers, r.U32("hello num_workers"));
  HARMONY_ASSIGN_OR_RETURN(h.num_machines, r.U32("hello num_machines"));
  HARMONY_ASSIGN_OR_RETURN(h.replication, r.U32("hello replication"));
  HARMONY_ASSIGN_OR_RETURN(h.b_dim, r.U32("hello b_dim"));
  HARMONY_ASSIGN_OR_RETURN(h.dim, r.U32("hello dim"));
  HARMONY_ASSIGN_OR_RETURN(h.generation, r.U64("hello generation"));
  HARMONY_ASSIGN_OR_RETURN(h.digest, r.U64("hello digest"));
  HARMONY_RETURN_NOT_OK(r.ExpectEnd("hello"));
  return h;
}

Status CheckHelloMatch(const WorkerHello& expected, const WorkerHello& got) {
  HARMONY_RETURN_NOT_OK(CheckField("version", expected.version, got.version));
  HARMONY_RETURN_NOT_OK(
      CheckField("worker_id", expected.worker_id, got.worker_id));
  HARMONY_RETURN_NOT_OK(
      CheckField("num_workers", expected.num_workers, got.num_workers));
  HARMONY_RETURN_NOT_OK(
      CheckField("num_machines", expected.num_machines, got.num_machines));
  HARMONY_RETURN_NOT_OK(
      CheckField("replication", expected.replication, got.replication));
  HARMONY_RETURN_NOT_OK(CheckField("b_dim", expected.b_dim, got.b_dim));
  HARMONY_RETURN_NOT_OK(CheckField("dim", expected.dim, got.dim));
  HARMONY_RETURN_NOT_OK(
      CheckField("store generation", expected.generation, got.generation));
  HARMONY_RETURN_NOT_OK(
      CheckField("store digest", expected.digest, got.digest));
  return Status::OK();
}

void EncodeStageScanRequest(const StageScanRequest& req,
                            std::vector<uint32_t>* out) {
  EncodeRequestWords(req, req.q_slice.data(), req.q_slice.size(),
                     req.lists.data(), req.lists.size(), req.id.size(),
                     req.id.data(), req.list.data(), req.row.data(),
                     req.partial.data(), req.rem_p_sq.data(), out);
}

void EncodeStageScanRequest(const StageScanHeader& head, const float* q_slice,
                            const std::vector<int32_t>& lists,
                            const StageColumns& cand,
                            std::vector<uint32_t>* out) {
  EncodeRequestWords(head, q_slice, head.width, lists.data(), lists.size(),
                     cand.count, cand.id, cand.list, cand.row, cand.partial,
                     cand.rem_p_sq, out);
}

Result<StageScanRequest> DecodeStageScanRequest(
    const std::vector<uint32_t>& payload) {
  WordReader r(payload.data(), payload.size());
  StageScanRequest req;
  HARMONY_ASSIGN_OR_RETURN(req.machine, r.U32("scan machine"));
  HARMONY_ASSIGN_OR_RETURN(req.vec_shard, r.U32("scan vec_shard"));
  HARMONY_ASSIGN_OR_RETURN(req.dim_block, r.U32("scan dim_block"));
  HARMONY_ASSIGN_OR_RETURN(req.metric, r.U32("scan metric"));
  HARMONY_ASSIGN_OR_RETURN(const uint32_t flags, r.U32("scan flags"));
  req.prune = (flags & 1u) != 0;
  req.use_norms = (flags & 2u) != 0;
  req.use_batched = (flags & 4u) != 0;
  if ((flags & ~7u) != 0) {
    return Status::IoError("scan request: unknown flag bits " +
                           std::to_string(flags));
  }
  HARMONY_ASSIGN_OR_RETURN(req.tau, r.F32("scan tau"));
  HARMONY_ASSIGN_OR_RETURN(req.rem_q_sq, r.F32("scan rem_q_sq"));
  HARMONY_ASSIGN_OR_RETURN(req.width, r.U32("scan width"));
  HARMONY_ASSIGN_OR_RETURN(const uint32_t num_lists, r.U32("scan num_lists"));
  HARMONY_ASSIGN_OR_RETURN(const uint32_t count, r.U32("scan count"));
  if (req.width == 0 || req.width > kMaxScanWidth) {
    return Status::IoError("scan request: width " + std::to_string(req.width) +
                           " out of range");
  }
  if (num_lists > kMaxScanLists) {
    return Status::IoError("scan request: " + std::to_string(num_lists) +
                           " lists exceeds cap");
  }
  if (count > kMaxScanCandidates) {
    return Status::IoError("scan request: " + std::to_string(count) +
                           " candidates exceeds cap");
  }
  // The declared columns must all be present before any of them is
  // allocated: a short hostile request cannot make the worker zero-fill
  // gigabytes only to fail on the first missing word.
  const uint64_t need = uint64_t{req.width} + num_lists +
                        uint64_t{count} * (req.use_norms ? 6 : 5);
  if (r.remaining() < need) {
    return Status::IoError("truncated scan request: declares " +
                           std::to_string(need) + " words, carries " +
                           std::to_string(r.remaining()));
  }
  req.q_slice.resize(req.width);
  HARMONY_RETURN_NOT_OK(r.Span32(req.q_slice.data(), req.width, "q_slice"));
  req.lists.resize(num_lists);
  HARMONY_RETURN_NOT_OK(r.Span32(req.lists.data(), num_lists, "list ids"));
  req.id.resize(count);
  HARMONY_RETURN_NOT_OK(r.Span64(req.id.data(), count, "candidate ids"));
  req.list.resize(count);
  HARMONY_RETURN_NOT_OK(r.Span32(req.list.data(), count, "candidate lists"));
  req.row.resize(count);
  HARMONY_RETURN_NOT_OK(r.Span32(req.row.data(), count, "candidate rows"));
  req.partial.resize(count);
  HARMONY_RETURN_NOT_OK(
      r.Span32(req.partial.data(), count, "candidate partials"));
  if (req.use_norms) {
    req.rem_p_sq.resize(count);
    HARMONY_RETURN_NOT_OK(
        r.Span32(req.rem_p_sq.data(), count, "candidate norms"));
  }
  HARMONY_RETURN_NOT_OK(r.ExpectEnd("scan request"));
  return req;
}

void EncodeStageScanResult(const StageScanResult& res,
                           std::vector<uint32_t>* out) {
  out->clear();
  const StageColumns& c = res.survivors;
  out->reserve(6 + c.count * (5 + (res.has_norms ? 1 : 0)));
  PutU32(static_cast<uint32_t>(c.count), out);
  PutU32(res.has_norms ? 1u : 0u, out);
  PutU64(res.ops, out);
  PutU64(res.dropped, out);
  PutSpan64(c.id, c.count, out);
  PutSpan32(c.list, c.count, out);
  PutSpan32(c.row, c.count, out);
  PutSpan32(c.partial, c.count, out);
  if (res.has_norms) PutSpan32(c.rem_p_sq, c.count, out);
}

Status DecodeStageScanResult(uint16_t op, const std::vector<uint32_t>& payload,
                             StageScanResult* res) {
  if (op != kOpStageResult) {
    return Status::IoError("stage scan answered with opcode " +
                           std::to_string(op));
  }
  WordReader r(payload.data(), payload.size());
  HARMONY_ASSIGN_OR_RETURN(const uint32_t count, r.U32("result count"));
  HARMONY_ASSIGN_OR_RETURN(const uint32_t norms, r.U32("result norms flag"));
  if (norms > 1) {
    return Status::IoError("scan result: bad norms flag " +
                           std::to_string(norms));
  }
  if ((norms == 1) != res->has_norms) {
    return Status::IoError("scan result: norms flag " + std::to_string(norms) +
                           " does not match the request");
  }
  if (count > kMaxScanCandidates) {
    return Status::IoError("scan result: " + std::to_string(count) +
                           " survivors exceeds cap");
  }
  if (count > res->survivors.count) {
    return Status::IoError("scan result: " + std::to_string(count) +
                           " survivors of " +
                           std::to_string(res->survivors.count) +
                           " candidates");
  }
  HARMONY_ASSIGN_OR_RETURN(const uint64_t ops, r.U64("result ops"));
  HARMONY_ASSIGN_OR_RETURN(const uint64_t dropped, r.U64("result dropped"));
  const uint64_t need = uint64_t{count} * (res->has_norms ? 6 : 5);
  if (r.remaining() < need) {
    return Status::IoError("truncated scan result: declares " +
                           std::to_string(need) + " words, carries " +
                           std::to_string(r.remaining()));
  }
  if (r.remaining() > need) {
    return Status::IoError("scan result: " +
                           std::to_string(r.remaining() - need) +
                           " trailing payload words");
  }
  // Every check passed: only now are the caller's columns overwritten.
  StageColumns& c = res->survivors;
  HARMONY_RETURN_NOT_OK(r.Span64(c.id, count, "survivor ids"));
  HARMONY_RETURN_NOT_OK(r.Span32(c.list, count, "survivor lists"));
  HARMONY_RETURN_NOT_OK(r.Span32(c.row, count, "survivor rows"));
  HARMONY_RETURN_NOT_OK(r.Span32(c.partial, count, "survivor partials"));
  if (res->has_norms) {
    HARMONY_RETURN_NOT_OK(r.Span32(c.rem_p_sq, count, "survivor norms"));
  }
  c.count = count;
  res->ops = ops;
  res->dropped = dropped;
  return Status::OK();
}

void EncodeErrorStatus(const Status& status, std::vector<uint32_t>* out) {
  out->clear();
  const std::string& msg = status.message();
  const size_t msg_words = (msg.size() + 3) / 4;
  out->reserve(2 + msg_words);
  PutU32(static_cast<uint32_t>(status.code()), out);
  PutU32(static_cast<uint32_t>(msg.size()), out);
  const size_t base = out->size();
  out->resize(base + msg_words, 0);
  std::memcpy(out->data() + base, msg.data(), msg.size());
}

Status DecodeErrorStatus(const std::vector<uint32_t>& payload) {
  WordReader r(payload.data(), payload.size());
  HARMONY_ASSIGN_OR_RETURN(const uint32_t code, r.U32("error code"));
  HARMONY_ASSIGN_OR_RETURN(const uint32_t msg_len, r.U32("error length"));
  if (code == 0 || code > static_cast<uint32_t>(StatusCode::kUnavailable)) {
    return Status::IoError("error message carries invalid status code " +
                           std::to_string(code));
  }
  const size_t msg_words = (static_cast<size_t>(msg_len) + 3) / 4;
  if (r.remaining() < msg_words) {
    return Status::IoError("truncated error message body");
  }
  std::vector<uint32_t> body(msg_words);
  HARMONY_RETURN_NOT_OK(r.Span32(body.data(), msg_words, "error body"));
  HARMONY_RETURN_NOT_OK(r.ExpectEnd("error message"));
  std::string msg(msg_len, '\0');
  if (msg_len > 0) std::memcpy(msg.data(), body.data(), msg_len);
  return Status(static_cast<StatusCode>(code), std::move(msg));
}

}  // namespace harmony
