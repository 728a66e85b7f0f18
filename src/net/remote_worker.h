#ifndef HARMONY_NET_REMOTE_WORKER_H_
#define HARMONY_NET_REMOTE_WORKER_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/engine.h"
#include "core/worker.h"
#include "net/socket_fault.h"
#include "net/socket_proto.h"
#include "net/socket_transport.h"
#include "util/status.h"

namespace harmony {

/// Content digest over a snapshot's worker stores + tombstone bitset: FNV-1a
/// over the grid layout (machines, blocks, ranges), every list's sorted id /
/// row count, the float bits of all slice rows and norm columns, and the
/// tombstone words. Two engines built from the same deterministic spec —
/// including one rebuilt after a crash and replayed from the update log —
/// produce the same digest; any divergence (missed replay, different data,
/// drifted pending delta) changes it. Quadratic in nothing: one pass over
/// the stored floats.
uint64_t ComputeStoreDigest(const std::vector<WorkerStore>& stores,
                            const uint64_t* tombstones, size_t tombstone_words);

/// The handshake identity of `engine` as worker `worker_id` of
/// `num_workers`: grid shape, generation and store digest (acquires a
/// snapshot to fold any dirty delta first).
Result<WorkerHello> MakeEngineHello(HarmonyEngine* engine, uint32_t worker_id,
                                    uint32_t num_workers);

struct SocketWorkerOptions {
  uint32_t worker_id = 0;
  uint32_t num_workers = 1;
  /// Accept/receive poll granularity: how often the serve loop re-checks
  /// its stop flag while idle. It bounds only the wait for a request's
  /// first byte; a request in flight is read to its end.
  int64_t poll_ms = 200;
  /// Deterministic connection-layer fault plan applied to every accepted
  /// channel (the worker-side shim; channel salt 2 * worker_id + 1 keeps
  /// its coin stream disjoint from the frontend's).
  SocketFaultPlan faults;
  /// How kill_after_frames fires: true exits the process (_exit, the
  /// multi-process crash test), false hangs up and stops serving (the
  /// in-process thread-worker tests).
  bool kill_is_exit = false;
};

/// \brief A worker process's serve loop: accepts connections on a listener
/// and answers the RPC protocol (hello handshake, stage scans, pings)
/// against its own engine's store snapshot. One connection is served at a
/// time: the frontend keeps one connection per worker and sends one request
/// at a time on it, whichever of its threads makes the call. A hung-up or
/// torn connection never stops the loop — the worker goes back to
/// accepting, which is what makes frontend reconnect-after-failure work.
class SocketWorker {
 public:
  static constexpr int kKillExitCode = 137;

  SocketWorker(HarmonyEngine* engine, SocketWorkerOptions opts);

  /// Acquires the snapshot and computes the handshake identity. Call once
  /// before Serve; re-call after engine mutations to serve the new epoch.
  Status Init();

  const WorkerHello& hello() const { return hello_; }
  uint64_t requests_served() const { return requests_served_; }
  bool shutdown_received() const { return shutdown_; }
  bool killed() const { return killed_; }

  /// Accept-and-serve until `stop` (may be null), a kOpShutdown, or the
  /// fault plan's kill fires. Returns OK on clean stop/shutdown;
  /// kUnavailable when the kill switch ended serving (thread mode).
  Status Serve(SocketListener* listener, const std::atomic<bool>* stop);

  /// Serves one connection until the peer hangs up (OK), a transport error
  /// tears it (the error), shutdown (OK), or the kill switch fires. Stage
  /// scans before a matching hello get a kFailedPrecondition error reply;
  /// pings and shutdown need no handshake.
  Status ServeChannel(SocketChannel* ch, const std::atomic<bool>* stop);

 private:
  /// Decodes, validates and runs one stage scan, encoding the reply into
  /// `*out` (reused across requests).
  Status HandleStageScan(const std::vector<uint32_t>& payload,
                         std::vector<uint32_t>* out) const;
  /// True when the fault plan's kill threshold is crossed; in process mode
  /// this call never returns.
  bool KillSwitchFired(const SocketChannel& ch);

  HarmonyEngine* engine_;
  SocketWorkerOptions opts_;
  StoreSnapshot snap_;
  WorkerHello hello_;
  SocketFaultInjector shim_;
  uint64_t frames_before_channel_ = 0;
  uint64_t requests_served_ = 0;
  bool shutdown_ = false;
  bool killed_ = false;
  bool init_done_ = false;
};

}  // namespace harmony

#endif  // HARMONY_NET_REMOTE_WORKER_H_
