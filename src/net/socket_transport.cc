#include "net/socket_transport.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <thread>

namespace harmony {
namespace {

int64_t NowMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Deadline timepoint for a per-operation budget; < 0 means "no deadline".
int64_t DeadlineAt(int64_t budget_ms) {
  return budget_ms < 0 ? -1 : NowMillis() + budget_ms;
}

/// Remaining poll timeout toward `deadline_at` (-1 = block). Past the
/// deadline it is 0: the caller may have been late itself, so the fd still
/// gets one non-blocking look before the wait counts as expired.
int PollTimeout(int64_t deadline_at) {
  if (deadline_at < 0) return -1;
  return static_cast<int>(
      std::clamp<int64_t>(deadline_at - NowMillis(), 0, 1 << 30));
}

/// Polls `fd` for `events` until readable/writable or the deadline passes.
Status PollFor(int fd, short events, int64_t deadline_at) {
  while (true) {
    const int timeout = PollTimeout(deadline_at);
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    const int rc = poll(&pfd, 1, timeout);
    if (rc > 0) return Status::OK();
    if (rc == 0) return Status::Timeout("socket deadline expired");
    if (errno == EINTR) continue;
    return Status::IoError(std::string("poll: ") + strerror(errno));
  }
}

Status MakeSockaddr(const SocketAddr& addr, sockaddr_storage* ss,
                    socklen_t* len) {
  memset(ss, 0, sizeof(*ss));
  if (addr.is_unix) {
    auto* sun = reinterpret_cast<sockaddr_un*>(ss);
    sun->sun_family = AF_UNIX;
    if (addr.path.size() + 1 > sizeof(sun->sun_path)) {
      return Status::InvalidArgument("unix socket path too long: " + addr.path);
    }
    memcpy(sun->sun_path, addr.path.c_str(), addr.path.size() + 1);
    *len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) +
                                  addr.path.size() + 1);
    return Status::OK();
  }
  auto* sin = reinterpret_cast<sockaddr_in*>(ss);
  sin->sin_family = AF_INET;
  sin->sin_port = htons(addr.port);
  if (inet_pton(AF_INET, addr.host.c_str(), &sin->sin_addr) != 1) {
    return Status::InvalidArgument("bad IPv4 host: " + addr.host);
  }
  *len = sizeof(sockaddr_in);
  return Status::OK();
}

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IoError(std::string("fcntl: ") + strerror(errno));
  }
  return Status::OK();
}

/// Slice-by-16 tables for CRC-32 (IEEE, reflected, polynomial 0xEDB88320).
/// Row 0 is the classic bytewise table; row k maps a byte to its CRC
/// contribution k bytes further along the stream, so one step folds 16
/// input bytes with 16 independent lookups instead of a 16-long chain.
struct Crc32Tables {
  uint32_t t[16][256];
};

const Crc32Tables& Crc32Table() {
  static const Crc32Tables tables = [] {
    Crc32Tables x;
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      x.t[0][i] = c;
    }
    for (int k = 1; k < 16; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        x.t[k][i] = (x.t[k - 1][i] >> 8) ^ x.t[0][x.t[k - 1][i] & 0xFF];
      }
    }
    return x;
  }();
  return tables;
}

/// Four stream bytes as a little-endian word (memcpy: any alignment).
uint32_t LoadLe32(const uint8_t* p) {
  uint32_t w;
  std::memcpy(&w, p, sizeof(w));
  if constexpr (std::endian::native == std::endian::big) {
    w = __builtin_bswap32(w);
  }
  return w;
}

/// Advances a gather/scatter list past `n` transferred bytes, dropping the
/// entries it finishes (and any empty ones right after them).
void ConsumeIov(struct iovec** iov, int* iovcnt, size_t n) {
  while (*iovcnt > 0 && n >= (*iov)->iov_len) {
    n -= (*iov)->iov_len;
    ++*iov;
    --*iovcnt;
  }
  if (n > 0) {
    (*iov)->iov_base = static_cast<uint8_t*>((*iov)->iov_base) + n;
    (*iov)->iov_len -= n;
  }
}

constexpr uint16_t kFlagFin = 1;

uint32_t OpWord(uint16_t op, uint16_t flags) {
  return static_cast<uint32_t>(op) | (static_cast<uint32_t>(flags) << 16);
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t init) {
  const auto& t = Crc32Table().t;
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = init ^ 0xFFFFFFFFu;
  for (; size >= 16; size -= 16, p += 16) {
    const uint32_t w0 = LoadLe32(p) ^ c;
    const uint32_t w1 = LoadLe32(p + 4);
    const uint32_t w2 = LoadLe32(p + 8);
    const uint32_t w3 = LoadLe32(p + 12);
    c = t[15][w0 & 0xFF] ^ t[14][(w0 >> 8) & 0xFF] ^
        t[13][(w0 >> 16) & 0xFF] ^ t[12][w0 >> 24] ^
        t[11][w1 & 0xFF] ^ t[10][(w1 >> 8) & 0xFF] ^
        t[9][(w1 >> 16) & 0xFF] ^ t[8][w1 >> 24] ^
        t[7][w2 & 0xFF] ^ t[6][(w2 >> 8) & 0xFF] ^
        t[5][(w2 >> 16) & 0xFF] ^ t[4][w2 >> 24] ^
        t[3][w3 & 0xFF] ^ t[2][(w3 >> 8) & 0xFF] ^
        t[1][(w3 >> 16) & 0xFF] ^ t[0][w3 >> 24];
  }
  for (; size > 0; --size, ++p) {
    c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::string SocketAddr::ToString() const {
  if (is_unix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

Result<SocketAddr> ParseSocketAddr(const std::string& spec) {
  SocketAddr addr;
  if (spec.rfind("unix:", 0) == 0) {
    addr.is_unix = true;
    addr.path = spec.substr(5);
    if (addr.path.empty()) {
      return Status::InvalidArgument("empty unix socket path: " + spec);
    }
    return addr;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    const std::string rest = spec.substr(4);
    const size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0) {
      return Status::InvalidArgument("expected tcp:host:port, got " + spec);
    }
    addr.is_unix = false;
    addr.host = rest.substr(0, colon);
    const std::string port_str = rest.substr(colon + 1);
    char* end = nullptr;
    const long port = strtol(port_str.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || port < 0 || port > 65535) {
      return Status::InvalidArgument("bad port in " + spec);
    }
    addr.port = static_cast<uint16_t>(port);
    return addr;
  }
  return Status::InvalidArgument(
      "socket address must start with unix: or tcp:, got " + spec);
}

// --- SocketChannel -----------------------------------------------------

SocketChannel::SocketChannel(int fd, uint16_t tenant, bool adopt_tenant)
    : fd_(fd), tenant_(tenant), adopt_tenant_(adopt_tenant) {}

SocketChannel::~SocketChannel() { Close(); }

SocketChannel& SocketChannel::operator=(SocketChannel&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    tenant_ = other.tenant_;
    adopt_tenant_ = other.adopt_tenant_;
    tenant_locked_ = other.tenant_locked_;
    send_seq_ = other.send_seq_;
    recv_seq_ = other.recv_seq_;
    deadline_ms_ = other.deadline_ms_;
    frames_sent_ = other.frames_sent_;
    frames_received_ = other.frames_received_;
    shim_ = other.shim_;
    other.fd_ = -1;
  }
  return *this;
}

void SocketChannel::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

Status SocketChannel::WriteAll(struct iovec* iov, int iovcnt,
                               int64_t deadline_at) {
  size_t size = 0;
  for (int i = 0; i < iovcnt; ++i) size += iov[i].iov_len;
  size_t off = 0;
  while (off < size) {
    HARMONY_RETURN_NOT_OK(PollFor(fd_, POLLOUT, deadline_at));
    struct msghdr mh = {};
    mh.msg_iov = iov;
    mh.msg_iovlen = static_cast<size_t>(iovcnt);
    const ssize_t n = sendmsg(fd_, &mh, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      ConsumeIov(&iov, &iovcnt, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      continue;
    }
    return Status::IoError(std::string("send: ") + strerror(errno));
  }
  return Status::OK();
}

Status SocketChannel::ReadAll(struct iovec* iov, int iovcnt, size_t read_cap,
                              int64_t* deadline_at, bool* started,
                              bool* clean_eof) {
  if (clean_eof != nullptr) *clean_eof = false;
  size_t size = 0;
  for (int i = 0; i < iovcnt; ++i) size += iov[i].iov_len;
  size_t off = 0;
  while (off < size) {
    const Status polled = PollFor(fd_, POLLIN, *deadline_at);
    if (!polled.ok()) {
      if (*started && polled.code() == StatusCode::kTimeout) {
        return Status::IoError("peer stalled mid-message: no byte for " +
                               std::to_string(deadline_ms_) + " ms");
      }
      return polled;
    }
    ssize_t n;
    if (read_cap < size - off) {
      n = recv(fd_, iov->iov_base, std::min(iov->iov_len, read_cap), 0);
    } else {
      struct msghdr mh = {};
      mh.msg_iov = iov;
      mh.msg_iovlen = static_cast<size_t>(iovcnt);
      n = recvmsg(fd_, &mh, 0);
    }
    if (n > 0) {
      off += static_cast<size_t>(n);
      ConsumeIov(&iov, &iovcnt, static_cast<size_t>(n));
      *started = true;
      *deadline_at = DeadlineAt(deadline_ms_);
      continue;
    }
    if (n == 0) {
      if (off == 0 && clean_eof != nullptr) {
        *clean_eof = true;
        return Status::Unavailable("peer closed connection");
      }
      return Status::IoError("peer closed connection mid-frame (truncated after " +
                             std::to_string(off) + " of " +
                             std::to_string(size) + " bytes)");
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
    return Status::IoError(std::string("recv: ") + strerror(errno));
  }
  return Status::OK();
}

Status SocketChannel::SendFrame(uint16_t op, bool fin, const uint32_t* chunk,
                                size_t words, int64_t deadline_at) {
  if (!valid()) return Status::FailedPrecondition("channel is closed");
  FrameHeader h;
  h.tenant = tenant_;
  h.seq = send_seq_;
  h.length = static_cast<uint16_t>(words + 2);

  // Header word, op word and CRC word go out from the stack; the chunk is
  // checksummed and sent from the caller's buffer, never copied.
  const uint64_t header_word = h.Encode();
  const uint32_t op_word = OpWord(op, fin ? kFlagFin : 0);
  uint32_t crc = Crc32(&op_word, sizeof(op_word));
  if (words > 0) crc = Crc32(chunk, words * sizeof(uint32_t), crc);
  uint8_t head[FrameHeader::kWireBytes + 2 * sizeof(uint32_t)];
  std::memcpy(head, &header_word, sizeof(header_word));
  std::memcpy(head + sizeof(header_word), &op_word, sizeof(op_word));
  std::memcpy(head + sizeof(header_word) + sizeof(op_word), &crc, sizeof(crc));
  struct iovec iov[2];
  iov[0].iov_base = head;
  iov[0].iov_len = sizeof(head);
  iov[1].iov_base = const_cast<uint32_t*>(chunk);
  iov[1].iov_len = words * sizeof(uint32_t);
  const size_t wire_bytes = FrameWireBytes(h.length);

  // Deterministic connection-layer faults, keyed by this channel's send
  // frame counter so a replay fails on the identical frame.
  if (shim_ != nullptr && shim_->enabled()) {
    const uint64_t op_index = frames_sent_;
    if (shim_->Stall(op_index)) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(shim_->plan().stall_micros));
    }
    if (shim_->Reset(op_index)) {
      Close();
      return Status::IoError("injected connection reset before send");
    }
    size_t torn = 0;
    if (shim_->TearWrite(op_index, wire_bytes, &torn)) {
      // Best-effort write of the torn prefix, then hard-close: the peer
      // sees a truncated frame, we see a dead connection.
      iov[0].iov_len = std::min(torn, sizeof(head));
      iov[1].iov_len = torn - iov[0].iov_len;
      (void)WriteAll(iov, 2, deadline_at);
      Close();
      return Status::IoError("injected torn write (" + std::to_string(torn) +
                             "/" + std::to_string(wire_bytes) + " bytes)");
    }
  }

  HARMONY_RETURN_NOT_OK(WriteAll(iov, 2, deadline_at));
  ++send_seq_;
  ++frames_sent_;
  return Status::OK();
}

Status SocketChannel::Send(uint16_t op, const uint32_t* payload, size_t words) {
  if (!valid()) return Status::FailedPrecondition("channel is closed");
  const int64_t deadline_at = DeadlineAt(deadline_ms_);
  size_t off = 0;
  do {
    const size_t chunk = std::min(words - off, kMaxChunkWords);
    const bool fin = off + chunk == words;
    HARMONY_RETURN_NOT_OK(
        SendFrame(op, fin, payload + off, chunk, deadline_at));
    off += chunk;
  } while (off < words);
  return Status::OK();
}

Result<WireMessage> SocketChannel::Recv() {
  WireMessage msg;
  HARMONY_RETURN_NOT_OK(Recv(&msg));
  return msg;
}

Status SocketChannel::Recv(WireMessage* out) {
  if (!valid()) return Status::FailedPrecondition("channel is closed");
  // The deadline bounds the wait for the message's first byte. Once a byte
  // has arrived, ReadAll restarts it on every byte instead, so a stream
  // that keeps making progress is never cut off, and one that stalls for a
  // whole deadline mid-message is torn (kIoError, never kTimeout).
  int64_t deadline_at = DeadlineAt(deadline_ms_);
  bool started = false;
  WireMessage& msg = *out;
  msg.op = 0;
  msg.payload.clear();
  bool first_frame = true;
  while (true) {
    // Per-frame short-read fault: one coin keyed by the receive frame
    // counter caps every recv() of this frame, exercising reassembly.
    size_t read_cap = static_cast<size_t>(-1);
    if (shim_ != nullptr && shim_->enabled()) {
      const uint64_t op_index = frames_received_;
      if (shim_->Stall(op_index)) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(shim_->plan().stall_micros));
      }
      if (shim_->Reset(op_index)) {
        Close();
        return Status::IoError("injected connection reset before recv");
      }
      size_t cap = 0;
      if (shim_->ShortRead(op_index, &cap)) read_cap = cap;
    }

    uint64_t word = 0;
    struct iovec header_iov = {&word, sizeof(word)};
    bool clean_eof = false;
    Status st = ReadAll(&header_iov, 1, read_cap, &deadline_at, &started,
                        first_frame ? &clean_eof : nullptr);
    if (!st.ok()) return st;
    HARMONY_ASSIGN_OR_RETURN(const FrameHeader h, ValidateFrameHeader(word));
    if (h.length < 2) {
      return Status::IoError("frame too short for opcode + checksum: " +
                             std::to_string(h.length) + " words");
    }
    if (adopt_tenant_ && !tenant_locked_) {
      tenant_ = h.tenant;
      tenant_locked_ = true;
    } else if (h.tenant != tenant_) {
      return Status::IoError("frame tenant mismatch: got " +
                             std::to_string(h.tenant) + ", expected " +
                             std::to_string(tenant_));
    }
    if (h.seq != recv_seq_) {
      return Status::IoError("out-of-sequence frame: got seq " +
                             std::to_string(h.seq) + ", expected " +
                             std::to_string(recv_seq_));
    }

    // The chunk lands straight in the message's tail and is verified there.
    const size_t chunk_words = h.length - 2u;
    if (msg.payload.size() + chunk_words > kMaxMessageWords) {
      return Status::IoError("reassembled message exceeds cap");
    }
    const size_t base = msg.payload.size();
    msg.payload.resize(base + chunk_words);
    uint32_t op_crc[2];
    struct iovec body_iov[2];
    body_iov[0].iov_base = op_crc;
    body_iov[0].iov_len = sizeof(op_crc);
    body_iov[1].iov_base = msg.payload.data() + base;
    body_iov[1].iov_len = chunk_words * sizeof(uint32_t);
    HARMONY_RETURN_NOT_OK(ReadAll(body_iov, 2, read_cap, &deadline_at,
                                  &started, nullptr));
    uint32_t crc = Crc32(&op_crc[0], sizeof(uint32_t));
    if (chunk_words > 0) {
      crc = Crc32(msg.payload.data() + base, chunk_words * sizeof(uint32_t),
                  crc);
    }
    if (crc != op_crc[1]) {
      return Status::IoError("frame checksum mismatch (seq " +
                             std::to_string(h.seq) + ")");
    }
    ++recv_seq_;
    ++frames_received_;

    const uint16_t op = static_cast<uint16_t>(op_crc[0]);
    const uint16_t flags = static_cast<uint16_t>(op_crc[0] >> 16);
    if (first_frame) {
      msg.op = op;
      first_frame = false;
    } else if (op != msg.op) {
      return Status::IoError("opcode changed mid-message: " +
                             std::to_string(op) + " vs " +
                             std::to_string(msg.op));
    }
    if (flags & kFlagFin) return Status::OK();
  }
}

// --- SocketListener ----------------------------------------------------

SocketListener::~SocketListener() { Close(); }

SocketListener& SocketListener::operator=(SocketListener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    addr_ = std::move(other.addr_);
    other.fd_ = -1;
  }
  return *this;
}

void SocketListener::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

Result<SocketListener> SocketListener::Listen(const SocketAddr& addr) {
  const int family = addr.is_unix ? AF_UNIX : AF_INET;
  const int fd = socket(family, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + strerror(errno));
  }
  SocketListener listener;
  listener.fd_ = fd;
  listener.addr_ = addr;
  if (addr.is_unix) {
    unlink(addr.path.c_str());
  } else {
    const int one = 1;
    setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  sockaddr_storage ss;
  socklen_t len = 0;
  HARMONY_RETURN_NOT_OK(MakeSockaddr(addr, &ss, &len));
  if (bind(fd, reinterpret_cast<sockaddr*>(&ss), len) < 0) {
    return Status::IoError("bind " + addr.ToString() + ": " + strerror(errno));
  }
  if (listen(fd, 16) < 0) {
    return Status::IoError("listen " + addr.ToString() + ": " +
                           strerror(errno));
  }
  if (!addr.is_unix && addr.port == 0) {
    sockaddr_in bound;
    socklen_t blen = sizeof(bound);
    if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &blen) == 0) {
      listener.addr_.port = ntohs(bound.sin_port);
    }
  }
  HARMONY_RETURN_NOT_OK(SetNonBlocking(fd));
  return listener;
}

Result<int> SocketListener::AcceptFd(int64_t deadline_ms) {
  if (!valid()) return Status::FailedPrecondition("listener is closed");
  const int64_t deadline_at = DeadlineAt(deadline_ms);
  while (true) {
    HARMONY_RETURN_NOT_OK(PollFor(fd_, POLLIN, deadline_at));
    const int conn = accept(fd_, nullptr, nullptr);
    if (conn >= 0) {
      HARMONY_RETURN_NOT_OK(SetNonBlocking(conn));
      return conn;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
    return Status::IoError(std::string("accept: ") + strerror(errno));
  }
}

Result<int> ConnectFd(const SocketAddr& addr, int64_t deadline_ms) {
  const int family = addr.is_unix ? AF_UNIX : AF_INET;
  const int fd = socket(family, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + strerror(errno));
  }
  Status st = SetNonBlocking(fd);
  if (!st.ok()) {
    close(fd);
    return st;
  }
  sockaddr_storage ss;
  socklen_t len = 0;
  st = MakeSockaddr(addr, &ss, &len);
  if (!st.ok()) {
    close(fd);
    return st;
  }
  const int64_t deadline_at = DeadlineAt(deadline_ms);
  if (connect(fd, reinterpret_cast<sockaddr*>(&ss), len) < 0) {
    if (errno != EINPROGRESS && errno != EAGAIN) {
      const std::string err = strerror(errno);
      close(fd);
      return Status::Unavailable("connect " + addr.ToString() + ": " + err);
    }
    st = PollFor(fd, POLLOUT, deadline_at);
    if (!st.ok()) {
      close(fd);
      return st;
    }
    int so_error = 0;
    socklen_t elen = sizeof(so_error);
    if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &elen) < 0 ||
        so_error != 0) {
      close(fd);
      return Status::Unavailable("connect " + addr.ToString() + ": " +
                                 strerror(so_error != 0 ? so_error : errno));
    }
  }
  if (!addr.is_unix) {
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return fd;
}

Result<SocketChannel> ConnectChannel(const SocketAddr& addr, uint16_t tenant,
                                     int64_t deadline_ms,
                                     uint32_t max_attempts,
                                     uint64_t backoff_seed) {
  Status last = Status::Unavailable("no connect attempts made");
  for (uint32_t attempt = 0; attempt < std::max(max_attempts, 1u); ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(
          BackoffDelayMicros(backoff_seed, attempt - 1)));
    }
    Result<int> fd = ConnectFd(addr, deadline_ms);
    if (fd.ok()) {
      SocketChannel ch(fd.value(), tenant);
      ch.set_deadline_millis(deadline_ms);
      return ch;
    }
    last = fd.status();
  }
  return last;
}

Result<std::pair<SocketChannel, SocketChannel>> MakeChannelPair(
    uint16_t tenant) {
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) < 0) {
    return Status::IoError(std::string("socketpair: ") + strerror(errno));
  }
  for (const int fd : fds) {
    const Status st = SetNonBlocking(fd);
    if (!st.ok()) {
      close(fds[0]);
      close(fds[1]);
      return st;
    }
  }
  return std::make_pair(SocketChannel(fds[0], tenant),
                        SocketChannel(fds[1], 0, /*adopt_tenant=*/true));
}

}  // namespace harmony
