#ifndef HARMONY_NET_SOCKET_BACKEND_H_
#define HARMONY_NET_SOCKET_BACKEND_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/coordinator.h"
#include "core/engine.h"
#include "net/socket_fault.h"
#include "net/socket_proto.h"
#include "net/socket_transport.h"
#include "util/status.h"

namespace harmony {

struct SocketFrontendOptions {
  /// Per-attempt connect budget; the retry loop owns the overall budget.
  int64_t connect_deadline_ms = 2000;
  /// Per-RPC send/receive deadline.
  int64_t rpc_deadline_ms = 10000;
  /// Delivery attempts per RPC before the worker is declared dead. Each
  /// failed attempt reconnects and retries the (idempotent) request.
  uint32_t max_attempts = 3;
  /// Seed of the deterministic retry backoff (BackoffDelayMicros).
  uint64_t backoff_seed = 0x50C7E7ULL;
  /// Frontend-side deterministic fault shim, applied to every worker
  /// channel (channel salt 2 * worker index).
  SocketFaultPlan faults;
};

struct SocketNetStats {
  uint64_t rpcs = 0;          ///< Requests that eventually delivered.
  uint64_t rpc_failures = 0;  ///< Attempts that failed (torn/timeout/reset).
  uint64_t reconnects = 0;    ///< Successful re-dials (incl. first dials).
  uint64_t workers_marked_dead = 0;
  uint64_t workers_rejoined = 0;
};

/// \brief The frontend's connection table to its worker processes: one
/// serial RPC channel per worker, machine -> worker ownership map
/// (machine % num_workers), retry with seeded backoff, dead-worker marking
/// and restart rejoin (re-dial + handshake). Single-threaded by design:
/// ExecuteSocket runs every chain stage inline on the calling thread, one
/// RPC at a time.
class SocketFrontend {
 public:
  explicit SocketFrontend(SocketFrontendOptions opts = {});

  /// Dials and handshakes every worker. `expect` pins the engine identity
  /// (shape/generation/digest); its worker_id is overridden per peer. Fails
  /// fast on any mismatch (kFailedPrecondition) or unreachable worker.
  Status Connect(const std::vector<SocketAddr>& workers,
                 const WorkerHello& expect);

  size_t num_workers() const { return peers_.size(); }
  /// Worker process owning `machine`'s stores.
  size_t WorkerOf(size_t machine) const { return machine % peers_.size(); }
  bool WorkerDead(size_t w) const { return peers_[w].dead; }
  size_t workers_dead() const;

  /// One round-trip RPC to worker `w` with retry/backoff/reconnect.
  /// `attempts_out` (may be null) receives the delivery attempts used —
  /// max_attempts when the call exhausts its budget and marks the worker
  /// dead (return kUnavailable). A kOpError reply decodes to its Status and
  /// returns it without retrying (the worker is alive; the request lost).
  Result<WireMessage> Call(size_t w, uint16_t op,
                           const std::vector<uint32_t>& payload,
                           uint32_t* attempts_out = nullptr);

  Status Ping(size_t w);

  /// Re-dials every dead worker (restart rejoin): a worker that came back
  /// with a matching handshake — same generation and digest, i.e. it
  /// replayed its update log — is marked live again. Workers still down
  /// stay dead; only a handshake mismatch fails the call.
  Status ReconnectDead();

  /// Best-effort kOpShutdown to every live worker.
  void ShutdownWorkers();

  const SocketNetStats& stats() const { return stats_; }
  const WorkerHello& expect() const { return expect_; }

 private:
  struct Peer {
    SocketAddr addr;
    SocketChannel ch;
    bool dead = false;
    std::unique_ptr<SocketFaultInjector> shim;
  };

  /// Connect + hello/ack handshake for peer `w`; on success the peer's
  /// channel is replaced.
  Status Dial(size_t w);

  SocketFrontendOptions opts_;
  WorkerHello expect_;
  std::vector<Peer> peers_;
  SocketNetStats stats_;
};

/// \brief The third execution backend, next to ExecuteSimulated and
/// ExecuteThreaded: the same ChainExecutor under the same rank-staged
/// driver (RunChainBatch), with one chain per group baton, and every
/// dimension-stage scan an RPC to the worker process owning the block's
/// machine (the ExecBackend::ScanStage override, one kOpStageScan per
/// member).
/// The frontend keeps routing, candidate build, prewarm, pruning
/// thresholds, health folding, fault ledger and result heaps; workers scan
/// their (bit-identical) stores and return compacted survivors. On a
/// fault-free run the merged results are bit-identical to both in-process
/// engines (monotone pruning makes them interleaving-independent).
///
/// Failure ladder per stage, mirroring the replicated threaded path: retry
/// with backoff (inside SocketFrontend::Call) -> failover across the
/// block's replicas in health order -> all replicas down: the block is
/// lost, booked as a dynamic hop loss and the query tagged degraded. Dead
/// workers feed NodeHealthTracker, folded at each rank barrier. A live
/// worker rejecting a request fails the batch with its Status.
///
/// Scope gates (Status, not silent): PQ streams (kNotSupported: the ADC
/// lookup tables do not travel on the wire) and modeled message-level
/// FaultPlans (kInvalidArgument: connection-level faults are the
/// SocketFaultPlan's job). Shared scans fall back to one chain per group
/// (identical results; a group scan has no RPC yet, so sharing rows is an
/// in-process optimization).
/// hedge_after needs no gate: hedging keys off modeled straggler
/// multipliers, so without a FaultPlan no stage hedges.
Result<ThreadedOutput> ExecuteSocket(const IvfIndex& index,
                                     const PartitionPlan& plan,
                                     const std::vector<WorkerStore>& stores,
                                     const PrewarmCache& prewarm,
                                     const BatchRouting& routing,
                                     const DatasetView& queries,
                                     const ExecOptions& opts,
                                     SocketFrontend* net);

/// Engine-level entry: routes `queries` and executes them over `net`
/// (the socket sibling of HarmonyEngine::SearchBatchThreaded).
Result<ThreadedOutput> SearchBatchOverSockets(HarmonyEngine* engine,
                                              SocketFrontend* net,
                                              const DatasetView& queries,
                                              size_t k, size_t nprobe);

}  // namespace harmony

#endif  // HARMONY_NET_SOCKET_BACKEND_H_
