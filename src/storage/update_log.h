#ifndef HARMONY_STORAGE_UPDATE_LOG_H_
#define HARMONY_STORAGE_UPDATE_LOG_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace harmony {

/// One mutation in the update stream.
enum class UpdateOp : uint8_t {
  kInsert = 1,  ///< Payload is the full vector; `id` is the assigned gid.
  kDelete = 2,  ///< No payload; `id` is the tombstoned gid.
};

/// \brief One versioned log record. `seq` is the record's position on the
/// log's append axis (assigned by Append*, monotone, never reused); `gen`
/// is the generation the record was appended under — records with
/// gen < head().gen have been folded into the frozen store by a merge and
/// survive only until Compact() reclaims them.
struct UpdateRecord {
  UpdateOp op = UpdateOp::kInsert;
  uint64_t seq = 0;
  uint64_t gen = 0;
  int64_t id = 0;
  std::vector<float> vec;  ///< Insert payload (dim floats); empty for deletes.
};

/// \brief Generation marker: a (generation, sequence) cursor into the log,
/// the same head/tail idiom a queue object keeps so readers can tell
/// compacted history from pending records ("gen/seq" in ToString).
struct UpdateLogMarker {
  uint64_t gen = 0;
  uint64_t seq = 0;

  bool operator==(const UpdateLogMarker& o) const {
    return gen == o.gen && seq == o.seq;
  }
  std::string ToString() const;
};

/// \brief Durable append-only update log with head/tail generation markers.
///
/// The tail marker names the next append slot; the head marker names the
/// first record that is NOT yet folded into the frozen generation — a merge
/// advances the head to the tail and bumps the generation, after which the
/// records below the head are dead weight kept only for audit until
/// Compact() drops them. Encode/Decode is versioned and length-framed per
/// record with a per-record checksum; Decode rejects truncated or corrupt
/// input with a status (never crashes), so a torn tail on disk loses the
/// torn record, not the process.
class UpdateLog {
 public:
  UpdateLog() = default;
  explicit UpdateLog(size_t dim) : dim_(dim) {}

  size_t dim() const { return dim_; }
  const UpdateLogMarker& head() const { return head_; }
  const UpdateLogMarker& tail() const { return tail_; }
  /// Retained records, ascending by seq (may start past seq 0 after
  /// Compact).
  const std::vector<UpdateRecord>& records() const { return records_; }
  /// Records at or past the head marker — the not-yet-merged suffix.
  size_t pending() const { return static_cast<size_t>(tail_.seq - head_.seq); }

  /// Appends an insert of `vec` (must have exactly dim() floats) assigned
  /// global id `id`; returns the record's seq.
  uint64_t AppendInsert(int64_t id, const float* vec, size_t dim);

  /// Appends a tombstone for `id`; returns the record's seq.
  uint64_t AppendDelete(int64_t id);

  /// A merge folded every pending record into the frozen generation:
  /// advance the head marker to the tail and open the next generation.
  void MarkMerged();

  /// Drops retained records below the head marker (already merged); the
  /// next Save writes only the pending suffix.
  void Compact();

  /// Serializes markers + retained records (format "HVUL", version 1).
  void EncodeTo(std::string* out) const;

  /// Parses a buffer produced by EncodeTo. Any framing, bounds, version,
  /// or checksum violation returns IoError — including a payload truncated
  /// mid-record — and never reads past `size`.
  static Result<UpdateLog> DecodeFrom(const void* data, size_t size);

  Status Save(const std::string& path) const;
  static Result<UpdateLog> Load(const std::string& path);

 private:
  size_t dim_ = 0;
  UpdateLogMarker head_;
  UpdateLogMarker tail_;
  std::vector<UpdateRecord> records_;
};

}  // namespace harmony

#endif  // HARMONY_STORAGE_UPDATE_LOG_H_
