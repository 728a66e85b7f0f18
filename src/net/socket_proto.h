#ifndef HARMONY_NET_SOCKET_PROTO_H_
#define HARMONY_NET_SOCKET_PROTO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace harmony {

/// \brief Opcodes of the frontend <-> worker RPC protocol carried by
/// SocketChannel messages. Request/response pairing is strict: the frontend
/// sends one request and reads exactly one reply per call, and a connection
/// carries one call at a time (frontend threads share a worker's connection
/// under its lock), so a worker reply is always
/// kOpStageResult/kOpHelloAck/kOpPong for the matching request, or kOpError
/// carrying a Status.
enum WireOp : uint16_t {
  kOpHello = 1,       ///< Handshake: WorkerHello of the connecting frontend.
  kOpHelloAck = 2,    ///< Handshake reply: WorkerHello of the worker.
  kOpStageScan = 3,   ///< One chain dimension-stage scan request.
  kOpStageResult = 4, ///< Compacted survivors of a stage scan.
  kOpPing = 5,        ///< Liveness probe (empty payload).
  kOpPong = 6,        ///< Liveness reply (empty payload).
  kOpShutdown = 7,    ///< Worker should stop serving (no reply).
  kOpError = 8,       ///< Encoded Status (application-level failure).
};

/// Protocol revision; bumped on any wire-incompatible change. Checked by
/// the handshake before anything else.
constexpr uint32_t kWireVersion = 1;

/// \brief Everything the handshake pins so a frontend and a worker agree
/// they execute against bit-identical state: the grid shape, the store
/// generation and a content digest over the worker stores + tombstones. A
/// worker restarted without replaying its update log produces a different
/// digest and is rejected with kFailedPrecondition — the crash-restart
/// recovery contract (replay first, then rejoin) is enforced on the wire.
struct WorkerHello {
  uint32_t version = kWireVersion;
  uint32_t worker_id = 0;     ///< Index of this worker in the worker list.
  uint32_t num_workers = 0;   ///< Worker-process count (machine -> worker map).
  uint32_t num_machines = 0;  ///< PartitionPlan::num_machines.
  uint32_t replication = 1;   ///< PartitionPlan::replication.
  uint32_t b_dim = 0;         ///< Dimension blocks of the plan.
  uint32_t dim = 0;           ///< Full vector dimension.
  uint64_t generation = 0;    ///< Engine store generation.
  uint64_t digest = 0;        ///< ComputeStoreDigest over stores+tombstones.
};

void EncodeHello(const WorkerHello& hello, std::vector<uint32_t>* out);
Result<WorkerHello> DecodeHello(const std::vector<uint32_t>& payload);

/// Field-by-field handshake check; kFailedPrecondition naming the first
/// mismatched field. Both ends run it (the worker against the frontend's
/// hello, the frontend against the ack).
Status CheckHelloMatch(const WorkerHello& expected, const WorkerHello& got);

/// \brief The scalar words of a dimension-stage scan request: the block's
/// address plus the scan parameters MakeStageScanParams derived on the
/// frontend.
struct StageScanHeader {
  uint32_t machine = 0;    ///< Grid machine whose store holds the block.
  uint32_t vec_shard = 0;  ///< Chain's vector shard.
  uint32_t dim_block = 0;  ///< Dimension block (stage) to scan.
  uint32_t metric = 0;     ///< Metric enum value.
  bool prune = false;      ///< Stage-gated pruning switch.
  bool use_norms = false;  ///< IP norm columns present (rem_p_sq shipped).
  bool use_batched = false;
  float tau = 0.0f;
  float rem_q_sq = 0.0f;
  uint32_t width = 0;  ///< Block width; the request carries this many floats.
};

/// \brief Candidate SoA columns borrowed from their owner, `count` entries
/// each (rem_p_sq null without norms). The frontend encodes a request
/// straight from its chain's columns and decodes the survivors back into
/// them; the worker encodes its reply straight from the columns ScanBlock
/// compacted. Neither side stages a copy.
struct StageColumns {
  size_t count = 0;
  int64_t* id = nullptr;
  int32_t* list = nullptr;  ///< Index into the request's list ids.
  int32_t* row = nullptr;   ///< Row within the list's slice.
  float* partial = nullptr;
  float* rem_p_sq = nullptr;
};

/// \brief One dimension-stage scan shipped to a worker, with owned columns:
/// the header plus the query's block slice, the chain's probed lists and its
/// compacted candidate SoA. The worker resolves list slices from its own
/// (bit-identical) stores, runs ScanBlock, and returns the survivors.
struct StageScanRequest : StageScanHeader {
  std::vector<float> q_slice;  ///< `width` floats.
  std::vector<int32_t> lists;  ///< Global IVF list ids probed by the chain.
  // Candidate SoA (all sized `count`; rem_p_sq only when use_norms).
  std::vector<int64_t> id;
  std::vector<int32_t> list;  ///< Index into `lists` per candidate.
  std::vector<int32_t> row;   ///< Row within the list's slice.
  std::vector<float> partial;
  std::vector<float> rem_p_sq;
};

/// Decode-time caps: a corrupt or hostile request cannot make the worker
/// allocate unboundedly (checked before any resize). Below the caps, the
/// decoders also require the payload to carry every declared word before
/// they size a column, so a short message never allocates for its claim.
constexpr uint32_t kMaxScanWidth = 1u << 20;
constexpr uint32_t kMaxScanLists = 1u << 20;
constexpr uint32_t kMaxScanCandidates = 1u << 26;

void EncodeStageScanRequest(const StageScanRequest& req,
                            std::vector<uint32_t>* out);
/// The borrowed form, word for word the same message: `q_slice` holds
/// head.width floats and `cand` the candidates (its rem_p_sq is read only
/// with head.use_norms). `out` is cleared and refilled, so a reused buffer
/// allocates nothing once it has grown to the largest request.
void EncodeStageScanRequest(const StageScanHeader& head, const float* q_slice,
                            const std::vector<int32_t>& lists,
                            const StageColumns& cand,
                            std::vector<uint32_t>* out);
Result<StageScanRequest> DecodeStageScanRequest(
    const std::vector<uint32_t>& payload);

/// \brief A stage scan's reply: the scan counters plus the compacted
/// survivors, in borrowed columns.
struct StageScanResult {
  uint64_t ops = 0;
  uint64_t dropped = 0;
  bool has_norms = false;  ///< Survivor norm columns (rem_p_sq) travel.
  StageColumns survivors;
};

void EncodeStageScanResult(const StageScanResult& res,
                           std::vector<uint32_t>* out);
/// Decodes a reply of opcode `op` in place. On entry `res->survivors` are
/// the request's candidate columns (a reply never has more survivors than
/// the request had candidates) and `res->has_norms` says whether norm
/// columns travel. Every header word and the payload length are checked
/// before any column is written — opcode, norms flag (0 or 1, and equal to
/// the expected one), the count cap, count <= survivors.count, and exactly
/// the declared words, neither short nor trailing — and any failure is
/// kIoError with `*res` and its columns untouched. On success the first
/// `count` entries of each column hold the survivors, survivors.count is
/// `count`, and ops/dropped carry the worker's counters.
Status DecodeStageScanResult(uint16_t op, const std::vector<uint32_t>& payload,
                             StageScanResult* res);

/// kOpError payload: the Status code word plus its message bytes, so a
/// worker-side rejection surfaces on the frontend with its original code
/// and text.
void EncodeErrorStatus(const Status& status, std::vector<uint32_t>* out);
Status DecodeErrorStatus(const std::vector<uint32_t>& payload);

}  // namespace harmony

#endif  // HARMONY_NET_SOCKET_PROTO_H_
