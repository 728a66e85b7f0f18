// The real-socket transport layer (net/socket_transport.h): framed message
// round-trips over a socketpair, chunked reassembly of large messages,
// Status (never crash, never hang) on every corruption the fault model can
// produce — truncated frames, flipped bits, bad markers, CRC mismatches,
// out-of-sequence and wrong-tenant frames — plus deadline timeouts, clean
// hangup detection, the deterministic fault shim (same seed => same torn
// byte, same short-read caps), and the pure capped backoff function the
// reconnect path schedules with.

#include "net/socket_transport.h"

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "net/socket_fault.h"
#include "util/rng.h"

namespace harmony {
namespace {

std::vector<uint32_t> MakePayload(size_t words, uint32_t salt = 0) {
  std::vector<uint32_t> payload(words);
  for (size_t i = 0; i < words; ++i) {
    payload[i] = static_cast<uint32_t>(i) * 2654435761u + salt;
  }
  return payload;
}

TEST(ParseSocketAddrTest, UnixAndTcpSpecs) {
  auto ux = ParseSocketAddr("unix:/tmp/harmony.sock");
  ASSERT_TRUE(ux.ok()) << ux.status();
  EXPECT_TRUE(ux.value().is_unix);
  EXPECT_EQ(ux.value().path, "/tmp/harmony.sock");
  EXPECT_EQ(ux.value().ToString(), "unix:/tmp/harmony.sock");

  auto tcp = ParseSocketAddr("tcp:127.0.0.1:9001");
  ASSERT_TRUE(tcp.ok()) << tcp.status();
  EXPECT_FALSE(tcp.value().is_unix);
  EXPECT_EQ(tcp.value().host, "127.0.0.1");
  EXPECT_EQ(tcp.value().port, 9001);

  EXPECT_FALSE(ParseSocketAddr("").ok());
  EXPECT_FALSE(ParseSocketAddr("bogus:/x").ok());
  EXPECT_FALSE(ParseSocketAddr("unix:").ok());
  EXPECT_FALSE(ParseSocketAddr("tcp:127.0.0.1").ok());
  EXPECT_FALSE(ParseSocketAddr("tcp:127.0.0.1:notaport").ok());
  EXPECT_FALSE(ParseSocketAddr("tcp:127.0.0.1:70000").ok());
}

TEST(SocketChannelTest, RoundTripSmallMessage) {
  auto pair = MakeChannelPair(7);
  ASSERT_TRUE(pair.ok()) << pair.status();
  SocketChannel client = std::move(pair.value().first);
  SocketChannel server = std::move(pair.value().second);

  const std::vector<uint32_t> payload = MakePayload(5);
  ASSERT_TRUE(client.Send(42, payload).ok());
  auto msg = server.Recv();
  ASSERT_TRUE(msg.ok()) << msg.status();
  EXPECT_EQ(msg.value().op, 42);
  EXPECT_EQ(msg.value().payload, payload);

  // And the other direction (the server adopted the client's tenant).
  ASSERT_TRUE(server.Send(43, payload).ok());
  auto back = client.Recv();
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back.value().op, 43);
  EXPECT_EQ(back.value().payload, payload);
}

TEST(SocketChannelTest, EmptyPayloadRoundTrips) {
  auto pair = MakeChannelPair(1);
  ASSERT_TRUE(pair.ok()) << pair.status();
  ASSERT_TRUE(pair.value().first.Send(9, nullptr, 0).ok());
  auto msg = pair.value().second.Recv();
  ASSERT_TRUE(msg.ok()) << msg.status();
  EXPECT_EQ(msg.value().op, 9);
  EXPECT_TRUE(msg.value().payload.empty());
}

TEST(SocketChannelTest, LargeMessageIsChunkedAndReassembled) {
  auto pair = MakeChannelPair(3);
  ASSERT_TRUE(pair.ok()) << pair.status();
  SocketChannel client = std::move(pair.value().first);
  SocketChannel server = std::move(pair.value().second);

  // 3.5 chunks worth of payload: forces the FIN-flagged multi-frame path.
  const size_t words = SocketChannel::kMaxChunkWords * 3 +
                       SocketChannel::kMaxChunkWords / 2;
  const std::vector<uint32_t> payload = MakePayload(words, 0xC0FFEE);
  // A socketpair buffer cannot hold megabytes: drain concurrently.
  std::thread sender([&client, &payload] {
    EXPECT_TRUE(client.Send(77, payload).ok());
  });
  auto msg = server.Recv();
  sender.join();
  ASSERT_TRUE(msg.ok()) << msg.status();
  EXPECT_EQ(msg.value().op, 77);
  ASSERT_EQ(msg.value().payload.size(), words);
  EXPECT_EQ(msg.value().payload, payload);
  EXPECT_EQ(client.frames_sent(), 4u);
  EXPECT_EQ(server.frames_received(), 4u);
}

TEST(SocketChannelTest, SequenceNumbersAreEnforcedPerDirection) {
  auto pair = MakeChannelPair(2);
  ASSERT_TRUE(pair.ok()) << pair.status();
  SocketChannel client = std::move(pair.value().first);
  SocketChannel server = std::move(pair.value().second);
  const std::vector<uint32_t> payload = MakePayload(3);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.Send(1, payload).ok());
    ASSERT_TRUE(server.Recv().ok());
    ASSERT_TRUE(server.Send(2, payload).ok());
    ASSERT_TRUE(client.Recv().ok());
  }
  EXPECT_EQ(client.frames_sent(), 5u);
  EXPECT_EQ(client.frames_received(), 5u);
}

TEST(SocketChannelTest, CleanHangupIsUnavailable) {
  auto pair = MakeChannelPair(4);
  ASSERT_TRUE(pair.ok()) << pair.status();
  SocketChannel client = std::move(pair.value().first);
  SocketChannel server = std::move(pair.value().second);
  client.Close();
  auto msg = server.Recv();
  ASSERT_FALSE(msg.ok());
  EXPECT_EQ(msg.status().code(), StatusCode::kUnavailable);
}

TEST(SocketChannelTest, DeadlineExpiresAsTimeout) {
  auto pair = MakeChannelPair(5);
  ASSERT_TRUE(pair.ok()) << pair.status();
  SocketChannel server = std::move(pair.value().second);
  server.set_deadline_millis(50);
  auto msg = server.Recv();  // nothing ever arrives
  ASSERT_FALSE(msg.ok());
  EXPECT_EQ(msg.status().code(), StatusCode::kTimeout);
}

/// Bytewise table-free CRC-32 (IEEE 802.3, reflected, polynomial
/// 0xEDB88320): the textbook bit loop, independent of the transport's
/// table code, so it is an outside reference for Crc32.
uint32_t ReferenceCrc32(const uint8_t* p, size_t size, uint32_t init) {
  uint32_t c = init ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(SocketChannelTest, Crc32CheckValue) {
  const char* check = "123456789";
  EXPECT_EQ(Crc32(check, 9), 0xCBF43926u);
  EXPECT_EQ(ReferenceCrc32(reinterpret_cast<const uint8_t*>(check), 9, 0),
            0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  EXPECT_EQ(Crc32(nullptr, 0, 0x12345678u), 0x12345678u);
}

// Every length 0..1100 at every start offset 0..15 (so each alignment of
// the word loads is covered), plain and chained: a split at any point,
// fed back through `init`, must give the one-pass value.
TEST(SocketChannelTest, Crc32MatchesBytewiseReference) {
  constexpr size_t kMaxLen = 1100;
  constexpr size_t kMaxOffset = 16;
  std::vector<uint8_t> buf(kMaxLen + kMaxOffset);
  Rng rng(0xC2C);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.NextBounded(256));
  for (size_t off = 0; off < kMaxOffset; ++off) {
    const uint8_t* p = buf.data() + off;
    for (size_t len = 0; len <= kMaxLen; ++len) {
      const uint32_t init = static_cast<uint32_t>(len * 0x9E3779B1u + off);
      const uint32_t want = ReferenceCrc32(p, len, init);
      ASSERT_EQ(Crc32(p, len, init), want) << "off=" << off << " len=" << len;
      const size_t cut = (len * 7 + off) % (len + 1);
      const uint32_t head = Crc32(p, cut, init);
      ASSERT_EQ(Crc32(p + cut, len - cut, head), want)
          << "off=" << off << " len=" << len << " cut=" << cut;
    }
  }
}

/// FNV-1a 64 over a byte string: a digest that shares nothing with CRC-32.
uint64_t Fnv1a64(const std::vector<uint8_t>& bytes) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (const uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001B3ULL;
  }
  return h;
}

// The exact bytes Send puts on the wire for a fixed three-frame message
// (two full chunks plus a short FIN chunk), read off the raw peer fd and
// pinned by digest (the frame ABI is host byte order; the value is for a
// little-endian host). Any change to the header packing, the op/flags
// word, the CRC value or the chunking shows up here.
TEST(SocketChannelTest, WireBytesOfThreeFrameMessageArePinned) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  SocketChannel client(fds[0], /*tenant=*/9);
  const size_t words = 2 * SocketChannel::kMaxChunkWords + 5;
  const std::vector<uint32_t> payload = MakePayload(words, 0x5EED);
  const size_t total = 3 * FrameHeader::kWireBytes + (words + 6) * 4;
  std::thread sender([&client, &payload] {
    EXPECT_TRUE(client.Send(0x1234, payload).ok());
  });
  std::vector<uint8_t> wire(total);
  size_t got = 0;
  while (got < total) {
    const ssize_t n = recv(fds[1], wire.data() + got, total - got, 0);
    ASSERT_GT(n, 0);
    got += static_cast<size_t>(n);
  }
  sender.join();
  close(fds[1]);
  EXPECT_EQ(client.frames_sent(), 3u);
  EXPECT_EQ(Fnv1a64(wire), 0x2B171159133068BAULL);
}

// Messages sized at the chunk boundaries: exactly one full frame, one
// word past it (a one-word FIN frame follows), and exactly two full
// frames. Each round-trips plain and with every recv fragmented.
TEST(SocketChannelTest, ChunkBoundaryMessagesRoundTrip) {
  constexpr size_t kChunk = SocketChannel::kMaxChunkWords;
  SocketFaultPlan fragment;
  fragment.seed = 0xB0DA;
  fragment.short_read_prob = 1.0;
  const SocketFaultInjector shim(fragment, /*channel=*/5);
  for (const bool short_reads : {false, true}) {
    for (const size_t words : {kChunk, kChunk + 1, 2 * kChunk}) {
      auto pair = MakeChannelPair(4);
      ASSERT_TRUE(pair.ok()) << pair.status();
      SocketChannel client = std::move(pair.value().first);
      SocketChannel server = std::move(pair.value().second);
      if (short_reads) server.set_fault_injector(&shim);
      const std::vector<uint32_t> payload =
          MakePayload(words, static_cast<uint32_t>(words));
      std::thread sender([&client, &payload] {
        EXPECT_TRUE(client.Send(31, payload).ok());
      });
      auto msg = server.Recv();
      sender.join();
      ASSERT_TRUE(msg.ok()) << msg.status();
      EXPECT_EQ(msg.value().op, 31);
      EXPECT_EQ(msg.value().payload, payload)
          << "words=" << words << " short_reads=" << short_reads;
      const uint64_t frames = (words + kChunk - 1) / kChunk;
      EXPECT_EQ(client.frames_sent(), frames);
      EXPECT_EQ(server.frames_received(), frames);
    }
  }
}

/// Writes `bytes` raw onto the peer's stream, bypassing Send's framing —
/// the corruption injection point for the decode tests.
void RawWrite(int fd, const void* bytes, size_t size) {
  ASSERT_EQ(send(fd, bytes, size, 0), static_cast<ssize_t>(size));
}

/// A connected socketpair where the test holds the raw client fd and the
/// channel wraps the server end (tenant adopted from the first frame).
struct RawPair {
  int raw_fd = -1;
  SocketChannel server;

  RawPair() = default;
  RawPair(RawPair&& other) noexcept
      : raw_fd(other.raw_fd), server(std::move(other.server)) {
    other.raw_fd = -1;
  }
  RawPair& operator=(RawPair&&) = delete;

  ~RawPair() {
    if (raw_fd >= 0) close(raw_fd);
  }
};

RawPair MakeRawPair() {
  int fds[2];
  EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  RawPair pair;
  pair.raw_fd = fds[0];
  pair.server = SocketChannel(fds[1], /*tenant=*/0, /*adopt_tenant=*/true);
  pair.server.set_deadline_millis(1000);
  return pair;
}

/// One well-formed frame as raw bytes (header + op/flags + CRC + chunk).
std::vector<uint8_t> EncodeRawFrame(uint16_t tenant, uint16_t seq, uint16_t op,
                                    bool fin,
                                    const std::vector<uint32_t>& chunk) {
  std::vector<uint32_t> payload;
  payload.push_back(static_cast<uint32_t>(op) |
                    (fin ? (1u << 16) : 0u) << 0);
  payload.push_back(0);  // CRC placeholder
  payload.insert(payload.end(), chunk.begin(), chunk.end());
  uint32_t crc = Crc32(payload.data(), sizeof(uint32_t));
  crc = Crc32(payload.data() + 2, (payload.size() - 2) * sizeof(uint32_t), crc);
  payload[1] = crc;
  FrameHeader h;
  h.tenant = tenant;
  h.seq = seq;
  h.length = static_cast<uint16_t>(payload.size());
  std::vector<uint8_t> bytes;
  AppendFrameBytes(h, payload.data(), &bytes);
  return bytes;
}

// The receive deadline bounds the wait for a message's first byte and then
// each wait for the next byte — never the whole message. A three-frame
// message written in halves with a stall before each half takes longer
// than the deadline in total, yet every single stall is shorter than it:
// the message must arrive intact, not time out half-read.
TEST(SocketChannelTest, SlowMultiFrameMessageOutlastingTheDeadlineArrives) {
  RawPair pair = MakeRawPair();
  constexpr int64_t kDeadlineMs = 400;
  constexpr auto kStall = std::chrono::milliseconds(120);
  pair.server.set_deadline_millis(kDeadlineMs);
  std::vector<uint32_t> expect;
  std::vector<std::vector<uint8_t>> frames;
  for (uint16_t seq = 0; seq < 3; ++seq) {
    const std::vector<uint32_t> chunk = MakePayload(64, seq);
    expect.insert(expect.end(), chunk.begin(), chunk.end());
    frames.push_back(EncodeRawFrame(9, seq, 21, /*fin=*/seq == 2, chunk));
  }
  Result<WireMessage> msg = Status::Internal("not received");
  std::thread receiver([&pair, &msg] { msg = pair.server.Recv(); });
  const auto start = std::chrono::steady_clock::now();
  for (const std::vector<uint8_t>& frame : frames) {
    const size_t half = frame.size() / 2;
    std::this_thread::sleep_for(kStall);
    RawWrite(pair.raw_fd, frame.data(), half);
    std::this_thread::sleep_for(kStall);
    RawWrite(pair.raw_fd, frame.data() + half, frame.size() - half);
  }
  receiver.join();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_GT(elapsed, kDeadlineMs);
  ASSERT_TRUE(msg.ok()) << msg.status();
  EXPECT_EQ(msg.value().op, 21);
  EXPECT_EQ(msg.value().payload, expect);
  EXPECT_EQ(pair.server.frames_received(), 3u);
}

// Once a message has started, a sender that stops mid-frame (connection
// still open) tears the stream: kIoError, never the idle kTimeout that
// would let the next Recv parse payload bytes as a frame header.
TEST(SocketChannelTest, SenderStoppingMidFrameIsIoError) {
  RawPair pair = MakeRawPair();
  pair.server.set_deadline_millis(100);
  const std::vector<uint8_t> bytes =
      EncodeRawFrame(9, 0, 21, /*fin=*/true, MakePayload(16));
  RawWrite(pair.raw_fd, bytes.data(), bytes.size() / 2);
  auto msg = pair.server.Recv();
  ASSERT_FALSE(msg.ok());
  EXPECT_EQ(msg.status().code(), StatusCode::kIoError) << msg.status();
}

TEST(SocketChannelDecodeTest, WellFormedRawFrameIsAccepted) {
  RawPair pair = MakeRawPair();
  const std::vector<uint32_t> chunk = {1, 2, 3};
  const std::vector<uint8_t> bytes =
      EncodeRawFrame(9, 0, 21, /*fin=*/true, chunk);
  RawWrite(pair.raw_fd, bytes.data(), bytes.size());
  auto msg = pair.server.Recv();
  ASSERT_TRUE(msg.ok()) << msg.status();
  EXPECT_EQ(msg.value().op, 21);
  EXPECT_EQ(msg.value().payload, chunk);
}

TEST(SocketChannelDecodeTest, BadMarkerIsIoError) {
  RawPair pair = MakeRawPair();
  std::vector<uint8_t> bytes = EncodeRawFrame(9, 0, 21, true, {1, 2, 3});
  bytes[0] ^= 0xFF;  // marker low byte
  RawWrite(pair.raw_fd, bytes.data(), bytes.size());
  auto msg = pair.server.Recv();
  ASSERT_FALSE(msg.ok());
  EXPECT_EQ(msg.status().code(), StatusCode::kIoError);
}

TEST(SocketChannelDecodeTest, CorruptPayloadFailsCrc) {
  RawPair pair = MakeRawPair();
  std::vector<uint8_t> bytes = EncodeRawFrame(9, 0, 21, true, {1, 2, 3});
  bytes.back() ^= 0x01;  // flip one payload bit
  RawWrite(pair.raw_fd, bytes.data(), bytes.size());
  auto msg = pair.server.Recv();
  ASSERT_FALSE(msg.ok());
  EXPECT_EQ(msg.status().code(), StatusCode::kIoError);
  EXPECT_NE(msg.status().message().find("checksum"), std::string::npos)
      << msg.status();
}

TEST(SocketChannelDecodeTest, TruncatedFrameIsIoErrorNotHang) {
  RawPair pair = MakeRawPair();
  std::vector<uint8_t> bytes = EncodeRawFrame(9, 0, 21, true, {1, 2, 3});
  // Send only a prefix, then hang up: the reader must fail, not block.
  RawWrite(pair.raw_fd, bytes.data(), bytes.size() / 2);
  close(pair.raw_fd);
  pair.raw_fd = -1;
  auto msg = pair.server.Recv();
  ASSERT_FALSE(msg.ok());
  EXPECT_EQ(msg.status().code(), StatusCode::kIoError);
}

TEST(SocketChannelDecodeTest, OutOfSequenceFrameIsIoError) {
  RawPair pair = MakeRawPair();
  const std::vector<uint8_t> bytes =
      EncodeRawFrame(9, /*seq=*/5, 21, true, {1});
  RawWrite(pair.raw_fd, bytes.data(), bytes.size());
  auto msg = pair.server.Recv();
  ASSERT_FALSE(msg.ok());
  EXPECT_EQ(msg.status().code(), StatusCode::kIoError);
  EXPECT_NE(msg.status().message().find("sequence"), std::string::npos)
      << msg.status();
}

TEST(SocketChannelDecodeTest, TenantSwitchMidStreamIsIoError) {
  RawPair pair = MakeRawPair();
  const std::vector<uint8_t> first = EncodeRawFrame(9, 0, 21, true, {1});
  RawWrite(pair.raw_fd, first.data(), first.size());
  ASSERT_TRUE(pair.server.Recv().ok());
  // Same stream, different tenant id: rejected after adoption locked it.
  const std::vector<uint8_t> second = EncodeRawFrame(10, 1, 21, true, {1});
  RawWrite(pair.raw_fd, second.data(), second.size());
  auto msg = pair.server.Recv();
  ASSERT_FALSE(msg.ok());
  EXPECT_EQ(msg.status().code(), StatusCode::kIoError);
  EXPECT_NE(msg.status().message().find("tenant"), std::string::npos)
      << msg.status();
}

TEST(SocketChannelDecodeTest, UndersizedLengthIsIoError) {
  RawPair pair = MakeRawPair();
  // length = 1 < the 2 mandatory payload words (op + CRC).
  FrameHeader h;
  h.tenant = 9;
  h.seq = 0;
  h.length = 1;
  const uint32_t word = 123;
  std::vector<uint8_t> bytes;
  AppendFrameBytes(h, &word, &bytes);
  RawWrite(pair.raw_fd, bytes.data(), bytes.size());
  auto msg = pair.server.Recv();
  ASSERT_FALSE(msg.ok());
  EXPECT_EQ(msg.status().code(), StatusCode::kIoError);
}

TEST(SocketChannelDecodeTest, NonFinFrameThenHangupIsIoError) {
  // A message cut off after a non-FIN frame: the peer hangs up mid-message,
  // which is a torn stream, not a clean hangup at a message boundary.
  RawPair pair = MakeRawPair();
  const std::vector<uint8_t> bytes =
      EncodeRawFrame(9, 0, 21, /*fin=*/false, {1, 2, 3});
  RawWrite(pair.raw_fd, bytes.data(), bytes.size());
  close(pair.raw_fd);
  pair.raw_fd = -1;
  auto msg = pair.server.Recv();
  ASSERT_FALSE(msg.ok());
  EXPECT_EQ(msg.status().code(), StatusCode::kIoError);
}

TEST(SocketChannelDecodeTest, MissingFinPastMessageCapIsIoError) {
  // A hostile stream of never-FIN frames must hit the reassembly cap and
  // fail instead of allocating forever. Every frame is full-size with the
  // next seq and a valid CRC, so each one alone is acceptable; the frame
  // that would carry the message past kMaxMessageWords (2^26 words, the
  // 1025th) is refused before its chunk is read.
  RawPair pair = MakeRawPair();
  // Growing the 256 MB reassembly buffer takes the receiver itself long
  // enough under the sanitizers to expire a 1 s wait between frames.
  pair.server.set_deadline_millis(10000);
  constexpr size_t kChunk = SocketChannel::kMaxChunkWords;
  constexpr size_t kFramesToCap =
      SocketChannel::kMaxMessageWords / kChunk + 1;
  // The CRC covers the op word and the chunk only, so one encoded frame
  // serves every seq once its header word is rewritten.
  std::vector<uint8_t> frame =
      EncodeRawFrame(9, 0, 21, /*fin=*/false, MakePayload(kChunk));
  std::thread writer([fd = pair.raw_fd, &frame] {
    for (size_t f = 0; f < kFramesToCap; ++f) {
      FrameHeader h;
      h.tenant = 9;
      h.seq = static_cast<uint16_t>(f);
      h.length = static_cast<uint16_t>(kChunk + 2);
      const uint64_t word = h.Encode();
      std::memcpy(frame.data(), &word, sizeof(word));
      for (size_t off = 0; off < frame.size();) {
        const ssize_t n =
            send(fd, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
        if (n <= 0) return;  // the reader refused the stream and hung up
        off += static_cast<size_t>(n);
      }
    }
  });
  auto msg = pair.server.Recv();
  pair.server.Close();  // unblocks the writer, parked mid-frame
  writer.join();
  ASSERT_FALSE(msg.ok());
  EXPECT_EQ(msg.status().code(), StatusCode::kIoError);
  EXPECT_NE(msg.status().message().find("reassembled message exceeds cap"),
            std::string::npos)
      << msg.status();
}

TEST(SocketChannelDecodeTest, RandomGarbageNeverCrashes) {
  // Seeded fuzz: random byte blobs thrown at the decoder — every outcome
  // must be a Status (usually bad marker), never a crash or hang.
  Rng rng(0xF422);
  for (int iter = 0; iter < 50; ++iter) {
    RawPair pair = MakeRawPair();
    pair.server.set_deadline_millis(200);
    std::vector<uint8_t> junk(8 + rng.NextBounded(64));
    for (uint8_t& b : junk) b = static_cast<uint8_t>(rng.NextBounded(256));
    RawWrite(pair.raw_fd, junk.data(), junk.size());
    close(pair.raw_fd);
    pair.raw_fd = -1;
    auto msg = pair.server.Recv();
    EXPECT_FALSE(msg.ok());
  }
}

TEST(SocketListenerTest, UnixListenConnectRoundTrip) {
  SocketAddr addr;
  addr.is_unix = true;
  addr.path = "/tmp/harmony_transport_test_" + std::to_string(getpid()) +
              ".sock";
  auto listener = SocketListener::Listen(addr);
  ASSERT_TRUE(listener.ok()) << listener.status();

  auto client_fd = ConnectFd(addr, 1000);
  ASSERT_TRUE(client_fd.ok()) << client_fd.status();
  auto server_fd = listener.value().AcceptFd(1000);
  ASSERT_TRUE(server_fd.ok()) << server_fd.status();

  SocketChannel client(client_fd.value(), 11);
  SocketChannel server(server_fd.value(), 0, /*adopt_tenant=*/true);
  const std::vector<uint32_t> payload = MakePayload(4);
  ASSERT_TRUE(client.Send(1, payload).ok());
  auto msg = server.Recv();
  ASSERT_TRUE(msg.ok()) << msg.status();
  EXPECT_EQ(msg.value().payload, payload);
  unlink(addr.path.c_str());
}

TEST(SocketListenerTest, TcpPortZeroResolvesAndConnects) {
  SocketAddr addr;
  addr.is_unix = false;
  addr.host = "127.0.0.1";
  addr.port = 0;
  auto listener = SocketListener::Listen(addr);
  ASSERT_TRUE(listener.ok()) << listener.status();
  ASSERT_GT(listener.value().addr().port, 0);

  auto client_fd = ConnectFd(listener.value().addr(), 1000);
  ASSERT_TRUE(client_fd.ok()) << client_fd.status();
  close(client_fd.value());
}

TEST(SocketListenerTest, RebindUnlinksStalePath) {
  // A restarted worker re-binds the path its peers already know.
  SocketAddr addr;
  addr.is_unix = true;
  addr.path = "/tmp/harmony_rebind_test_" + std::to_string(getpid()) + ".sock";
  auto first = SocketListener::Listen(addr);
  ASSERT_TRUE(first.ok()) << first.status();
  first.value().Close();
  auto second = SocketListener::Listen(addr);
  ASSERT_TRUE(second.ok()) << second.status();
  unlink(addr.path.c_str());
}

TEST(ConnectTest, UnreachableAddressFailsWithinDeadline) {
  SocketAddr addr;
  addr.is_unix = true;
  addr.path = "/tmp/harmony_nonexistent_" + std::to_string(getpid()) + ".sock";
  auto fd = ConnectFd(addr, 200);
  EXPECT_FALSE(fd.ok());
  auto ch = ConnectChannel(addr, 1, 100, /*max_attempts=*/2,
                           /*backoff_seed=*/7);
  EXPECT_FALSE(ch.ok());
}

// ---------------------------------------------------------------------------
// Backoff: a pure function of (seed, attempt), capped, monotone base.

TEST(BackoffTest, DeterministicPerSeedAndAttempt) {
  for (uint64_t seed : {0ULL, 1ULL, 0xDEADBEEFULL}) {
    for (uint32_t attempt = 0; attempt < 12; ++attempt) {
      EXPECT_EQ(BackoffDelayMicros(seed, attempt),
                BackoffDelayMicros(seed, attempt));
    }
  }
}

TEST(BackoffTest, PropertySweepCappedAndBounded) {
  Rng rng(99);
  for (int iter = 0; iter < 200; ++iter) {
    const uint64_t seed = rng.NextU64();
    const uint32_t attempt = static_cast<uint32_t>(rng.NextBounded(40));
    const uint64_t delay = BackoffDelayMicros(seed, attempt);
    const uint64_t exp_base =
        std::min(kBackoffCapMicros,
                 kBackoffBaseMicros << std::min<uint32_t>(attempt, 8));
    // Delay lands in [base/2, base]: never zero-ish, never past the cap.
    EXPECT_GE(delay, exp_base / 2) << "seed=" << seed << " a=" << attempt;
    EXPECT_LE(delay, exp_base) << "seed=" << seed << " a=" << attempt;
    EXPECT_LE(delay, kBackoffCapMicros);
  }
}

TEST(BackoffTest, DifferentSeedsJitterDifferently) {
  // Not a hard guarantee per-pair, but across 16 seeds at a fixed attempt
  // at least two distinct delays must appear (jitter is real).
  std::vector<uint64_t> delays;
  for (uint64_t s = 0; s < 16; ++s) {
    delays.push_back(BackoffDelayMicros(s * 7919 + 13, 4));
  }
  std::sort(delays.begin(), delays.end());
  EXPECT_NE(delays.front(), delays.back());
}

// ---------------------------------------------------------------------------
// Deterministic fault shim.

TEST(SocketFaultTest, PlanValidationAndEnabledGate) {
  SocketFaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  EXPECT_TRUE(plan.Validate().ok());
  plan.torn_write_prob = 1.5;
  EXPECT_FALSE(plan.Validate().ok());
  plan.torn_write_prob = 0.3;
  EXPECT_TRUE(plan.Validate().ok());
  EXPECT_TRUE(plan.enabled());
  SocketFaultPlan kill_only;
  kill_only.kill_after_frames = 3;
  EXPECT_TRUE(kill_only.enabled());
}

TEST(SocketFaultTest, CoinsAreDeterministicPerChannelAndOp) {
  SocketFaultPlan plan;
  plan.seed = 0xABCD;
  plan.torn_write_prob = 0.5;
  plan.short_read_prob = 0.5;
  plan.stall_prob = 0.25;
  plan.reset_prob = 0.25;
  SocketFaultInjector a(plan, /*channel=*/3);
  SocketFaultInjector b(plan, /*channel=*/3);
  SocketFaultInjector other(plan, /*channel=*/4);
  bool any_channel_difference = false;
  for (uint64_t op = 0; op < 64; ++op) {
    size_t torn_a = 0, torn_b = 0, cap_a = 0, cap_b = 0;
    const bool tear_a = a.TearWrite(op, 1000, &torn_a);
    const bool tear_b = b.TearWrite(op, 1000, &torn_b);
    EXPECT_EQ(tear_a, tear_b);
    if (tear_a) {
      EXPECT_EQ(torn_a, torn_b);
      EXPECT_GE(torn_a, 1u);
      EXPECT_LT(torn_a, 1000u);
    }
    EXPECT_EQ(a.ShortRead(op, &cap_a), b.ShortRead(op, &cap_b));
    if (cap_a != 0) {
      EXPECT_EQ(cap_a, cap_b);
      EXPECT_GE(cap_a, 1u);
      EXPECT_LE(cap_a, 16u);
    }
    EXPECT_EQ(a.Stall(op), b.Stall(op));
    EXPECT_EQ(a.Reset(op), b.Reset(op));
    size_t torn_o = 0;
    if (other.TearWrite(op, 1000, &torn_o) != tear_a) {
      any_channel_difference = true;
    }
  }
  // Distinct channel salts give distinct (but each reproducible) streams.
  EXPECT_TRUE(any_channel_difference);
}

TEST(SocketFaultTest, ShortReadShimStillDeliversIntactMessages) {
  // Short reads are legal stream behavior: with the shim fragmenting every
  // recv, the reassembly loop must still deliver each message intact.
  SocketFaultPlan plan;
  plan.seed = 77;
  plan.short_read_prob = 1.0;
  auto pair = MakeChannelPair(6);
  ASSERT_TRUE(pair.ok()) << pair.status();
  SocketChannel client = std::move(pair.value().first);
  SocketChannel server = std::move(pair.value().second);
  SocketFaultInjector shim(plan, /*channel=*/1);
  server.set_fault_injector(&shim);
  server.set_deadline_millis(5000);
  const std::vector<uint32_t> payload = MakePayload(300, 5);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.Send(5, payload).ok());
    auto msg = server.Recv();
    ASSERT_TRUE(msg.ok()) << msg.status();
    EXPECT_EQ(msg.value().payload, payload);
  }
}

// A receiver that is itself late — here it stalls well past its deadline
// before reading — still takes a message that already sits in the socket:
// past the deadline the channel polls once more, and only an fd with
// nothing to read is a timeout. The lateness is the receiver's own, so
// blaming the peer would be wrong.
TEST(SocketFaultTest, ReceiverStalledPastItsDeadlineTakesAWrittenMessage) {
  SocketFaultPlan plan;
  plan.seed = 78;
  plan.stall_prob = 1.0;
  plan.stall_micros = 200000;
  auto pair = MakeChannelPair(6);
  ASSERT_TRUE(pair.ok()) << pair.status();
  SocketChannel client = std::move(pair.value().first);
  SocketChannel server = std::move(pair.value().second);
  SocketFaultInjector shim(plan, /*channel=*/1);
  server.set_fault_injector(&shim);
  server.set_deadline_millis(20);
  const std::vector<uint32_t> payload = MakePayload(300, 7);
  ASSERT_TRUE(client.Send(5, payload).ok());  // written in full
  auto msg = server.Recv();
  ASSERT_TRUE(msg.ok()) << msg.status();
  EXPECT_EQ(msg.value().op, 5);
  EXPECT_EQ(msg.value().payload, payload);
  // Nothing written: the same late poll finds the fd idle.
  auto idle = server.Recv();
  ASSERT_FALSE(idle.ok());
  EXPECT_EQ(idle.status().code(), StatusCode::kTimeout) << idle.status();
}

/// Everything `fd` delivers until the peer closes it.
std::vector<uint8_t> ReadUntilEof(int fd) {
  std::vector<uint8_t> bytes;
  uint8_t buf[4096];
  ssize_t n;
  while ((n = recv(fd, buf, sizeof(buf), 0)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  return bytes;
}

// A torn write puts exactly the coin's prefix of the frame on the wire,
// whether the cut falls in the header/op/CRC words or in the chunk.
TEST(SocketFaultTest, TornWriteDeliversExactlyTheCoinsPrefix) {
  const std::vector<uint32_t> payload = MakePayload(64, 0x7041);
  const size_t frame_bytes = FrameWireBytes(payload.size() + 2);
  std::vector<uint8_t> frame;
  {
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    SocketChannel client(fds[0], /*tenant=*/9);
    ASSERT_TRUE(client.Send(3, payload).ok());
    client.Close();
    frame = ReadUntilEof(fds[1]);
    close(fds[1]);
  }
  ASSERT_EQ(frame.size(), frame_bytes);
  bool cut_in_head = false;
  bool cut_in_chunk = false;
  for (uint64_t seed = 0; seed < 64; ++seed) {
    SocketFaultPlan plan;
    plan.seed = seed;
    plan.torn_write_prob = 1.0;
    const SocketFaultInjector shim(plan, /*channel=*/2);
    size_t torn = 0;
    ASSERT_TRUE(shim.TearWrite(0, frame_bytes, &torn));
    (torn < FrameWireBytes(2) ? cut_in_head : cut_in_chunk) = true;
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    SocketChannel client(fds[0], /*tenant=*/9);
    client.set_fault_injector(&shim);
    EXPECT_FALSE(client.Send(3, payload).ok());
    EXPECT_FALSE(client.valid());
    const std::vector<uint8_t> got = ReadUntilEof(fds[1]);
    close(fds[1]);
    ASSERT_EQ(got.size(), torn) << "seed=" << seed;
    EXPECT_TRUE(std::equal(got.begin(), got.end(), frame.begin()))
        << "seed=" << seed;
  }
  EXPECT_TRUE(cut_in_head);
  EXPECT_TRUE(cut_in_chunk);
}

TEST(SocketFaultTest, TornWriteReplaysIdentically) {
  // Two runs under the same plan/seed/channel: the same frame tears at the
  // same byte, the reader fails the same way. The transcript is the pair
  // (frames delivered before the tear, reader status code).
  SocketFaultPlan plan;
  plan.seed = 0x7EA4;
  plan.torn_write_prob = 0.30;
  auto run = [&plan]() -> std::pair<int, int> {
    auto pair = MakeChannelPair(8);
    EXPECT_TRUE(pair.ok());
    SocketChannel client = std::move(pair.value().first);
    SocketChannel server = std::move(pair.value().second);
    SocketFaultInjector shim(plan, /*channel=*/2);
    client.set_fault_injector(&shim);
    server.set_deadline_millis(1000);
    const std::vector<uint32_t> payload = MakePayload(64);
    int delivered = 0;
    int fail_code = 0;
    for (int i = 0; i < 40; ++i) {
      Status sent = client.Send(1, payload);
      if (!sent.ok()) {
        // Torn mid-frame: the channel closed itself; the peer must see a
        // decode failure, not a hang.
        auto msg = server.Recv();
        EXPECT_FALSE(msg.ok());
        fail_code = static_cast<int>(msg.status().code());
        break;
      }
      auto msg = server.Recv();
      EXPECT_TRUE(msg.ok()) << msg.status();
      ++delivered;
    }
    return {delivered, fail_code};
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);
  // With p = 0.30 over 40 frames the tear fires essentially always.
  EXPECT_NE(first.second, 0);
}

}  // namespace
}  // namespace harmony
