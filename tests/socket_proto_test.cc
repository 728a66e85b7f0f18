// The frontend <-> worker RPC codec (net/socket_proto.h): encode/decode
// round trips of every message body, hostile declared sizes rejected
// before any column is allocated, and a seeded truncation and bit-flip
// sweep over real encoded requests and results that must end in a Status,
// never a crash.

#include "net/socket_proto.h"

#include <sys/resource.h>

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "util/rng.h"

namespace harmony {
namespace {

StageScanRequest MakeRequest(size_t count, bool use_norms) {
  StageScanRequest req;
  req.machine = 3;
  req.vec_shard = 1;
  req.dim_block = 2;
  req.metric = 1;
  req.prune = true;
  req.use_norms = use_norms;
  req.use_batched = true;
  req.tau = 12.5f;
  req.rem_q_sq = 0.75f;
  req.width = 8;
  for (uint32_t d = 0; d < req.width; ++d) {
    req.q_slice.push_back(0.5f * static_cast<float>(d) - 1.0f);
  }
  req.lists = {4, 17, 9};
  for (size_t i = 0; i < count; ++i) {
    req.id.push_back(static_cast<int64_t>(i) * 1000003 - 7);
    req.list.push_back(static_cast<int32_t>(i % req.lists.size()));
    req.row.push_back(static_cast<int32_t>(i * 3));
    req.partial.push_back(static_cast<float>(i) * 0.25f);
    if (use_norms) req.rem_p_sq.push_back(static_cast<float>(i) + 0.5f);
  }
  return req;
}

StageScanResult MakeResult(size_t count, bool has_norms) {
  StageScanResult res;
  res.ops = 0x1234567890ULL;
  res.dropped = 42;
  res.has_norms = has_norms;
  for (size_t i = 0; i < count; ++i) {
    res.id.push_back(-static_cast<int64_t>(i) * 65537);
    res.list.push_back(static_cast<int32_t>(i % 5));
    res.row.push_back(static_cast<int32_t>(i + 11));
    res.partial.push_back(static_cast<float>(i) * 1.5f);
    if (has_norms) res.rem_p_sq.push_back(static_cast<float>(i) * 2.0f);
  }
  return res;
}

void ExpectSameRequest(const StageScanRequest& a, const StageScanRequest& b) {
  EXPECT_EQ(a.machine, b.machine);
  EXPECT_EQ(a.vec_shard, b.vec_shard);
  EXPECT_EQ(a.dim_block, b.dim_block);
  EXPECT_EQ(a.metric, b.metric);
  EXPECT_EQ(a.prune, b.prune);
  EXPECT_EQ(a.use_norms, b.use_norms);
  EXPECT_EQ(a.use_batched, b.use_batched);
  EXPECT_EQ(a.tau, b.tau);
  EXPECT_EQ(a.rem_q_sq, b.rem_q_sq);
  EXPECT_EQ(a.width, b.width);
  EXPECT_EQ(a.q_slice, b.q_slice);
  EXPECT_EQ(a.lists, b.lists);
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.list, b.list);
  EXPECT_EQ(a.row, b.row);
  EXPECT_EQ(a.partial, b.partial);
  EXPECT_EQ(a.rem_p_sq, b.rem_p_sq);
}

void ExpectSameResult(const StageScanResult& a, const StageScanResult& b) {
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.has_norms, b.has_norms);
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.list, b.list);
  EXPECT_EQ(a.row, b.row);
  EXPECT_EQ(a.partial, b.partial);
  EXPECT_EQ(a.rem_p_sq, b.rem_p_sq);
}

/// Peak resident set of this process so far, in KB.
long PeakRssKb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

TEST(SocketProtoTest, StageScanRequestRoundTrips) {
  for (const bool use_norms : {false, true}) {
    for (const size_t count : {size_t{0}, size_t{1}, size_t{37}}) {
      const StageScanRequest req = MakeRequest(count, use_norms);
      std::vector<uint32_t> wire;
      EncodeStageScanRequest(req, &wire);
      auto back = DecodeStageScanRequest(wire);
      ASSERT_TRUE(back.ok()) << back.status();
      ExpectSameRequest(req, back.value());
    }
  }
}

TEST(SocketProtoTest, StageScanResultRoundTrips) {
  for (const bool has_norms : {false, true}) {
    for (const size_t count : {size_t{0}, size_t{1}, size_t{37}}) {
      const StageScanResult res = MakeResult(count, has_norms);
      std::vector<uint32_t> wire;
      EncodeStageScanResult(res, &wire);
      auto back = DecodeStageScanResult(wire);
      ASSERT_TRUE(back.ok()) << back.status();
      ExpectSameResult(res, back.value());
    }
  }
}

TEST(SocketProtoTest, HelloAndErrorRoundTrip) {
  WorkerHello hello;
  hello.worker_id = 1;
  hello.num_workers = 2;
  hello.num_machines = 4;
  hello.replication = 2;
  hello.b_dim = 4;
  hello.dim = 128;
  hello.generation = 0xABCDEF0123ULL;
  hello.digest = 0xFEEDFACECAFEBEEFULL;
  std::vector<uint32_t> wire;
  EncodeHello(hello, &wire);
  auto back = DecodeHello(wire);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(CheckHelloMatch(hello, back.value()).ok());

  for (const char* text : {"", "x", "four", "a message of odd length"}) {
    const Status sent = Status::FailedPrecondition(text);
    EncodeErrorStatus(sent, &wire);
    const Status got = DecodeErrorStatus(wire);
    EXPECT_EQ(got.code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(got.message(), text);
  }
}

// A ten-word request header that declares the largest counts the caps
// allow, and nothing after it. Each must fail as kIoError before a column
// is sized: the process's peak RSS stays far below the 512 MB the id column
// alone would take.
TEST(SocketProtoTest, HostileCountsAreIoErrorWithoutAllocating) {
  const long rss_before = PeakRssKb();
  const auto header = [](uint32_t width, uint32_t num_lists, uint32_t count,
                         uint32_t flags) {
    // machine, vec_shard, dim_block, metric, flags, tau, rem_q_sq, width,
    // num_lists, count.
    return std::vector<uint32_t>{0, 0, 0, 0, flags, 0, 0, width, num_lists,
                                 count};
  };
  const std::vector<std::vector<uint32_t>> hostile = {
      header(1, 0, kMaxScanCandidates, 0),
      header(1, 0, kMaxScanCandidates, 2),
      header(kMaxScanWidth, 0, 0, 0),
      header(1, kMaxScanLists, 0, 0),
      header(kMaxScanWidth, kMaxScanLists, kMaxScanCandidates, 2),
  };
  for (const std::vector<uint32_t>& wire : hostile) {
    auto req = DecodeStageScanRequest(wire);
    ASSERT_FALSE(req.ok());
    EXPECT_EQ(req.status().code(), StatusCode::kIoError) << req.status();
  }
  // Past the caps: rejected by the cap checks themselves.
  for (const std::vector<uint32_t>& wire :
       {header(kMaxScanWidth + 1, 0, 0, 0), header(1, kMaxScanLists + 1, 0, 0),
        header(1, 0, kMaxScanCandidates + 1, 0)}) {
    auto req = DecodeStageScanRequest(wire);
    ASSERT_FALSE(req.ok());
    EXPECT_EQ(req.status().code(), StatusCode::kIoError) << req.status();
  }
  // Result: count, norms flag, ops (2 words), dropped (2 words).
  for (const uint32_t norms : {0u, 1u}) {
    const std::vector<uint32_t> wire = {kMaxScanCandidates, norms, 0, 0, 0, 0};
    auto res = DecodeStageScanResult(wire);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), StatusCode::kIoError) << res.status();
  }
  EXPECT_LT(PeakRssKb() - rss_before, 64 * 1024);
}

// Every truncation of a real encoded message fails cleanly; seeded bit
// flips anywhere in it (counts and flags included) decode to a Status or to
// a well-formed message, never a crash or an out-of-bounds read.
TEST(SocketProtoTest, TruncationAndBitFlipSweepNeverCrashes) {
  std::vector<std::vector<uint32_t>> requests(2);
  EncodeStageScanRequest(MakeRequest(23, false), &requests[0]);
  EncodeStageScanRequest(MakeRequest(23, true), &requests[1]);
  std::vector<std::vector<uint32_t>> results(2);
  EncodeStageScanResult(MakeResult(23, false), &results[0]);
  EncodeStageScanResult(MakeResult(23, true), &results[1]);

  for (const std::vector<uint32_t>& wire : requests) {
    for (size_t len = 0; len < wire.size(); ++len) {
      const std::vector<uint32_t> cut(wire.begin(), wire.begin() + len);
      EXPECT_FALSE(DecodeStageScanRequest(cut).ok()) << "len=" << len;
    }
  }
  for (const std::vector<uint32_t>& wire : results) {
    for (size_t len = 0; len < wire.size(); ++len) {
      const std::vector<uint32_t> cut(wire.begin(), wire.begin() + len);
      EXPECT_FALSE(DecodeStageScanResult(cut).ok()) << "len=" << len;
    }
  }

  Rng rng(0x5CA7);
  for (int iter = 0; iter < 2000; ++iter) {
    const bool is_request = (iter & 1) == 0;
    std::vector<uint32_t> wire =
        is_request ? requests[rng.NextBounded(2)] : results[rng.NextBounded(2)];
    const size_t flips = 1 + rng.NextBounded(3);
    for (size_t f = 0; f < flips; ++f) {
      wire[rng.NextBounded(wire.size())] ^= 1u << rng.NextBounded(32);
    }
    if (rng.NextBounded(4) == 0) wire.resize(rng.NextBounded(wire.size()));
    if (is_request) {
      auto req = DecodeStageScanRequest(wire);
      if (req.ok()) {
        const size_t count = req.value().id.size();
        EXPECT_EQ(req.value().q_slice.size(), req.value().width);
        EXPECT_EQ(req.value().row.size(), count);
        EXPECT_EQ(req.value().partial.size(), count);
        EXPECT_EQ(req.value().rem_p_sq.size(),
                  req.value().use_norms ? count : 0u);
      }
    } else {
      auto res = DecodeStageScanResult(wire);
      if (res.ok()) {
        const size_t count = res.value().id.size();
        EXPECT_EQ(res.value().list.size(), count);
        EXPECT_EQ(res.value().rem_p_sq.size(),
                  res.value().has_norms ? count : 0u);
      }
    }
  }
}

}  // namespace
}  // namespace harmony
