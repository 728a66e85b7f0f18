#ifndef HARMONY_NET_SOCKET_TRANSPORT_H_
#define HARMONY_NET_SOCKET_TRANSPORT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/socket_fault.h"
#include "serve/msg_queue.h"
#include "util/status.h"

struct iovec;

namespace harmony {

/// \brief A parsed transport endpoint: `unix:/path/to.sock` (AF_UNIX
/// stream) or `tcp:host:port` (AF_INET loopback-class deployments; host is
/// a dotted-quad, port 0 lets the listener pick). The two families behave
/// identically above the fd.
struct SocketAddr {
  bool is_unix = true;
  std::string path;  ///< AF_UNIX socket path.
  std::string host;  ///< AF_INET dotted-quad.
  uint16_t port = 0;

  std::string ToString() const;
};

Result<SocketAddr> ParseSocketAddr(const std::string& spec);

/// \brief One reassembled transport message: an opcode plus its payload
/// words, possibly carried by several wire frames (chunked + FIN-flagged).
struct WireMessage {
  uint16_t op = 0;
  std::vector<uint32_t> payload;
};

/// \brief Length-framed, checksummed, sequenced byte channel over a
/// connected stream socket — the wire form of the serving mailbox frames
/// (serve/msg_queue.h), now crossing a process boundary.
///
/// Wire layout per frame (host byte order; same-host ABI, documented in
/// docs/serving.md):
///   [0..7]   FrameHeader word — marker 0xAA55 | tenant (channel id) |
///            seq (per-direction, free-running mod 2^16) | length (payload
///            words, >= 2)
///   [8..11]  payload word 0: opcode | flags << 16 (bit 0 = FIN: last
///            frame of the message)
///   [12..15] payload word 1: CRC-32 over every payload word except this one
///   [16.. ]  payload words 2..length-1: message chunk
///
/// Robustness contract: every decode step is bounds-checked and returns
/// Status (bad marker, oversized length, CRC mismatch, out-of-sequence,
/// tenant mismatch, truncation at any byte) — a corrupt, torn, or hostile
/// stream can never crash or hang the process. All socket operations run
/// under a deadline (poll + remaining-time accounting): a send gets the
/// whole budget, a receive gets it for the message's first byte and then
/// again after every byte that arrives. A peer that sends nothing yields
/// kTimeout; one that stalls mid-message yields kIoError. An attached
/// SocketFaultInjector makes failures deterministic (seeded torn writes,
/// short reads, stalls, resets keyed per frame counter).
///
/// Not thread-safe: one thread uses a channel at a time. Frontend threads
/// share a worker's channel under that worker's lock, which they hold for a
/// whole RPC, so a connection carries one request and its reply at a time
/// (idempotent scans make reconnect-and-retransmit safe).
class SocketChannel {
 public:
  SocketChannel() = default;
  /// Wraps a connected stream fd. `tenant` is the channel id stamped into
  /// every sent frame; with `adopt_tenant` (the accepting side) the first
  /// received frame's tenant is adopted instead and enforced afterwards.
  SocketChannel(int fd, uint16_t tenant, bool adopt_tenant = false);
  ~SocketChannel();

  SocketChannel(SocketChannel&& other) noexcept { *this = std::move(other); }
  SocketChannel& operator=(SocketChannel&& other) noexcept;
  SocketChannel(const SocketChannel&) = delete;
  SocketChannel& operator=(const SocketChannel&) = delete;

  bool valid() const { return fd_ >= 0; }
  void Close();

  uint16_t tenant() const { return tenant_; }
  uint64_t frames_sent() const { return frames_sent_; }
  uint64_t frames_received() const { return frames_received_; }

  /// Deadline for Send/Recv: each Send gets the full budget; Recv gets it
  /// for the first byte and again after each byte received.
  void set_deadline_millis(int64_t ms) { deadline_ms_ = ms; }
  int64_t deadline_millis() const { return deadline_ms_; }

  /// Attaches a deterministic fault shim (borrowed; may be null). Faults
  /// fire keyed on this channel's frame counters.
  void set_fault_injector(const SocketFaultInjector* shim) { shim_ = shim; }

  /// Sends one message, chunked across as many frames as needed.
  Status Send(uint16_t op, const uint32_t* payload, size_t words);
  Status Send(uint16_t op, const std::vector<uint32_t>& payload) {
    return Send(op, payload.data(), payload.size());
  }

  /// Receives and reassembles one message. kUnavailable on a clean peer
  /// hangup at a frame boundary; kIoError on any mid-frame truncation or
  /// corruption, or when the peer stalls a whole deadline mid-message;
  /// kTimeout only when no byte of the message arrived within the deadline.
  Result<WireMessage> Recv();
  /// The same, into `*msg`: its payload buffer is reused, so a receive loop
  /// that keeps one message allocates nothing once the buffer has grown to
  /// the largest message. On failure `*msg` holds no usable message.
  Status Recv(WireMessage* msg);

  /// Words of message payload one frame can carry (header length cap minus
  /// the opcode and CRC words).
  static constexpr size_t kMaxChunkWords = FrameHeader::kMaxPayloadWords - 2;
  /// Reassembled-message cap: a corrupt stream cannot make us allocate
  /// unboundedly (64M words = 256 MB).
  static constexpr size_t kMaxMessageWords = size_t{1} << 26;

 private:
  Status SendFrame(uint16_t op, bool fin, const uint32_t* chunk, size_t words,
                   int64_t deadline_at);
  /// Writes the gather list `iov` (consumed as it goes; its first entry
  /// must be non-empty), polling before each sendmsg until `deadline_at`.
  Status WriteAll(struct iovec* iov, int iovcnt, int64_t deadline_at);
  /// Fills the scatter list `iov` (consumed as it goes; its first entry
  /// must be non-empty), waiting at most until `*deadline_at` for each
  /// read; `read_cap` caps one recv. Every byte read sets `*started` and
  /// pushes `*deadline_at` one deadline out; a wait that expires after
  /// `*started` is kIoError.
  Status ReadAll(struct iovec* iov, int iovcnt, size_t read_cap,
                 int64_t* deadline_at, bool* started, bool* clean_eof);

  int fd_ = -1;
  uint16_t tenant_ = 0;
  bool adopt_tenant_ = false;
  bool tenant_locked_ = false;
  uint16_t send_seq_ = 0;
  uint16_t recv_seq_ = 0;
  int64_t deadline_ms_ = 5000;
  uint64_t frames_sent_ = 0;
  uint64_t frames_received_ = 0;
  const SocketFaultInjector* shim_ = nullptr;
};

/// \brief A bound, listening server socket (AF_UNIX or AF_INET).
class SocketListener {
 public:
  SocketListener() = default;
  ~SocketListener();
  SocketListener(SocketListener&& other) noexcept { *this = std::move(other); }
  SocketListener& operator=(SocketListener&& other) noexcept;
  SocketListener(const SocketListener&) = delete;
  SocketListener& operator=(const SocketListener&) = delete;

  /// Binds and listens. An existing AF_UNIX path is unlinked first (a
  /// restarted worker re-binds the address its peers already know); TCP
  /// binds with SO_REUSEADDR and port 0 resolves to the kernel's pick
  /// (readable from addr()).
  static Result<SocketListener> Listen(const SocketAddr& addr);

  bool valid() const { return fd_ >= 0; }
  void Close();
  /// The bound address (TCP: with the resolved port).
  const SocketAddr& addr() const { return addr_; }

  /// Accepts one connection; kTimeout if none arrives within the deadline
  /// (deadline_ms < 0 blocks). Returns the connected fd.
  Result<int> AcceptFd(int64_t deadline_ms);

 private:
  int fd_ = -1;
  SocketAddr addr_;
};

/// Connects a stream socket to `addr` within `deadline_ms`.
Result<int> ConnectFd(const SocketAddr& addr, int64_t deadline_ms);

/// Connects with seeded-backoff retry: up to `max_attempts` ConnectFd
/// tries, sleeping BackoffDelayMicros(backoff_seed, attempt) between
/// failures — the reconnect primitive the frontend and tests share.
Result<SocketChannel> ConnectChannel(const SocketAddr& addr, uint16_t tenant,
                                     int64_t deadline_ms,
                                     uint32_t max_attempts,
                                     uint64_t backoff_seed);

/// A connected AF_UNIX channel pair (socketpair) for in-process transport
/// tests: first = client end (stamps `tenant`), second = server end
/// (adopts it).
Result<std::pair<SocketChannel, SocketChannel>> MakeChannelPair(
    uint16_t tenant);

/// CRC-32 (IEEE, reflected) over `size` bytes, seeded by `init` so chunks
/// can chain. The frame checksum uses this. Computed slice-by-16 (16 bytes
/// per step); the values are those of the bytewise definition.
uint32_t Crc32(const void* data, size_t size, uint32_t init = 0);

}  // namespace harmony

#endif  // HARMONY_NET_SOCKET_TRANSPORT_H_
