// The frontend <-> worker RPC codec (net/socket_proto.h): encode/decode
// round trips of every message body (stage results decode in place into
// the request's columns), hostile declared sizes rejected before any
// column is allocated or written, and a seeded truncation and bit-flip
// sweep over real encoded requests and results that must end in a Status,
// never a crash.

#include "net/socket_proto.h"

#include <sys/resource.h>

#include <gtest/gtest.h>

#include <cstring>
#include <type_traits>
#include <utility>
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

/// Owned survivor columns behind a StageScanResult's borrowed ones.
struct ResultColumns {
  std::vector<int64_t> id;
  std::vector<int32_t> list;
  std::vector<int32_t> row;
  std::vector<float> partial;
  std::vector<float> rem_p_sq;

  /// A result borrowing every column (rem_p_sq only with norms).
  StageScanResult View(bool has_norms) {
    StageScanResult res;
    res.has_norms = has_norms;
    res.survivors.count = id.size();
    res.survivors.id = id.data();
    res.survivors.list = list.data();
    res.survivors.row = row.data();
    res.survivors.partial = partial.data();
    res.survivors.rem_p_sq = has_norms ? rem_p_sq.data() : nullptr;
    return res;
  }
};

/// `count` survivors; `salt` varies the values so a decode target can start
/// out different from the message it receives.
ResultColumns MakeColumns(size_t count, bool has_norms, int salt = 0) {
  ResultColumns c;
  for (size_t i = 0; i < count; ++i) {
    c.id.push_back(-static_cast<int64_t>(i) * 65537 + salt);
    c.list.push_back(static_cast<int32_t>(i % 5) + salt);
    c.row.push_back(static_cast<int32_t>(i + 11) + salt);
    c.partial.push_back(static_cast<float>(i) * 1.5f + static_cast<float>(salt));
    if (has_norms) {
      c.rem_p_sq.push_back(static_cast<float>(i) * 2.0f +
                           static_cast<float>(salt));
    }
  }
  return c;
}

/// A real encoded reply of `count` survivors.
std::vector<uint32_t> EncodeResult(size_t count, bool has_norms) {
  ResultColumns c = MakeColumns(count, has_norms);
  StageScanResult res = c.View(has_norms);
  res.ops = 0x1234567890ULL;
  res.dropped = 42;
  std::vector<uint32_t> wire;
  EncodeStageScanResult(res, &wire);
  return wire;
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

TEST(SocketProtoTest, StageScanRequestBorrowedFormEncodesSameWords) {
  for (const bool use_norms : {false, true}) {
    StageScanRequest req = MakeRequest(37, use_norms);
    std::vector<uint32_t> owned;
    EncodeStageScanRequest(req, &owned);
    StageColumns cand;
    cand.count = req.id.size();
    cand.id = req.id.data();
    cand.list = req.list.data();
    cand.row = req.row.data();
    cand.partial = req.partial.data();
    cand.rem_p_sq = use_norms ? req.rem_p_sq.data() : nullptr;
    std::vector<uint32_t> borrowed = {7, 7, 7};  // stale words are cleared
    EncodeStageScanRequest(req, req.q_slice.data(), req.lists, cand,
                           &borrowed);
    EXPECT_EQ(borrowed, owned);
  }
}

// A reply decodes in place into the request's columns: the survivors lead
// each column, the count shrinks to theirs, and entries past it keep what
// they held.
TEST(SocketProtoTest, StageScanResultRoundTrips) {
  for (const bool has_norms : {false, true}) {
    for (const size_t count : {size_t{0}, size_t{1}, size_t{37}}) {
      ResultColumns src = MakeColumns(count, has_norms);
      StageScanResult sent = src.View(has_norms);
      sent.ops = 0x1234567890ULL;
      sent.dropped = 42;
      std::vector<uint32_t> wire;
      EncodeStageScanResult(sent, &wire);
      for (const size_t extra : {size_t{0}, size_t{5}}) {
        ResultColumns dst = MakeColumns(count + extra, has_norms, 99);
        const ResultColumns before = dst;
        StageScanResult back = dst.View(has_norms);
        const Status st = DecodeStageScanResult(kOpStageResult, wire, &back);
        ASSERT_TRUE(st.ok()) << st;
        EXPECT_EQ(back.ops, sent.ops);
        EXPECT_EQ(back.dropped, sent.dropped);
        ASSERT_EQ(back.survivors.count, count);
        const auto prefix = [count](const auto& v) {
          return std::vector<typename std::decay_t<decltype(v)>::value_type>(
              v.begin(), v.begin() + static_cast<std::ptrdiff_t>(count));
        };
        EXPECT_EQ(prefix(dst.id), src.id);
        EXPECT_EQ(prefix(dst.list), src.list);
        EXPECT_EQ(prefix(dst.row), src.row);
        EXPECT_EQ(prefix(dst.partial), src.partial);
        if (has_norms) {
          EXPECT_EQ(prefix(dst.rem_p_sq), src.rem_p_sq);
        }
        for (size_t i = count; i < count + extra; ++i) {
          EXPECT_EQ(dst.id[i], before.id[i]);
          EXPECT_EQ(dst.partial[i], before.partial[i]);
        }
      }
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
  // Result: count, norms flag, ops (2 words), dropped (2 words), decoded
  // into columns that hold 37 candidates.
  for (const uint32_t norms : {0u, 1u}) {
    for (const uint32_t count : {kMaxScanCandidates, kMaxScanCandidates + 1}) {
      const std::vector<uint32_t> wire = {count, norms, 0, 0, 0, 0};
      ResultColumns dst = MakeColumns(37, norms == 1);
      StageScanResult res = dst.View(norms == 1);
      const Status st = DecodeStageScanResult(kOpStageResult, wire, &res);
      ASSERT_FALSE(st.ok());
      EXPECT_EQ(st.code(), StatusCode::kIoError) << st;
    }
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
  const std::vector<std::vector<uint32_t>> results = {EncodeResult(23, false),
                                                      EncodeResult(23, true)};

  for (const std::vector<uint32_t>& wire : requests) {
    for (size_t len = 0; len < wire.size(); ++len) {
      const std::vector<uint32_t> cut(wire.begin(), wire.begin() + len);
      EXPECT_FALSE(DecodeStageScanRequest(cut).ok()) << "len=" << len;
    }
  }
  for (size_t r = 0; r < results.size(); ++r) {
    const std::vector<uint32_t>& wire = results[r];
    for (size_t len = 0; len < wire.size(); ++len) {
      const std::vector<uint32_t> cut(wire.begin(), wire.begin() + len);
      ResultColumns dst = MakeColumns(23, r == 1);
      StageScanResult res = dst.View(r == 1);
      EXPECT_FALSE(DecodeStageScanResult(kOpStageResult, cut, &res).ok())
          << "len=" << len;
    }
  }

  Rng rng(0x5CA7);
  for (int iter = 0; iter < 2000; ++iter) {
    const bool is_request = (iter & 1) == 0;
    const size_t pick = rng.NextBounded(2);
    std::vector<uint32_t> wire = is_request ? requests[pick] : results[pick];
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
      ResultColumns dst = MakeColumns(23, pick == 1);
      StageScanResult res = dst.View(pick == 1);
      if (DecodeStageScanResult(kOpStageResult, wire, &res).ok()) {
        EXPECT_LE(res.survivors.count, 23u);
        EXPECT_EQ(wire.size(),
                  6 + res.survivors.count * (pick == 1 ? 6u : 5u));
      }
    }
  }
}

// Every hostile reply — wrong opcode, a bad or mismatched norms flag, a
// count past the cap or past the request's candidates, truncated at any
// word, or with trailing words — is kIoError and leaves the caller's
// columns and the result's fields bit for bit as they were.
TEST(SocketProtoTest, HostileRepliesLeaveColumnsUntouched) {
  for (const bool has_norms : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "norms=" << has_norms);
    const std::vector<uint32_t> good = EncodeResult(23, has_norms);
    // (opcode, payload) pairs.
    std::vector<std::pair<uint16_t, std::vector<uint32_t>>> hostile;
    hostile.emplace_back(kOpPong, good);
    hostile.emplace_back(kOpError, good);
    for (const uint32_t flag : {2u, has_norms ? 0u : 1u}) {
      std::vector<uint32_t> w = good;
      w[1] = flag;
      hostile.emplace_back(kOpStageResult, w);
    }
    for (const uint32_t count : {24u, 1000u, kMaxScanCandidates,
                                 kMaxScanCandidates + 1, 0xFFFFFFFFu}) {
      std::vector<uint32_t> w = good;
      w[0] = count;
      hostile.emplace_back(kOpStageResult, w);
    }
    for (size_t len = 0; len < good.size(); ++len) {
      hostile.emplace_back(
          kOpStageResult,
          std::vector<uint32_t>(good.begin(),
                                good.begin() + static_cast<std::ptrdiff_t>(len)));
    }
    std::vector<uint32_t> trailing = good;
    trailing.push_back(0);
    hostile.emplace_back(kOpStageResult, trailing);
    std::vector<uint32_t> fewer = good;  // declares 22, carries 23
    fewer[0] = 22;
    hostile.emplace_back(kOpStageResult, fewer);

    for (size_t h = 0; h < hostile.size(); ++h) {
      SCOPED_TRACE(::testing::Message() << "hostile reply " << h);
      ResultColumns dst = MakeColumns(23, has_norms, 7);
      const ResultColumns before = dst;
      StageScanResult res = dst.View(has_norms);
      res.ops = 5;
      res.dropped = 6;
      const Status st =
          DecodeStageScanResult(hostile[h].first, hostile[h].second, &res);
      ASSERT_FALSE(st.ok());
      EXPECT_EQ(st.code(), StatusCode::kIoError) << st;
      EXPECT_EQ(res.survivors.count, 23u);
      EXPECT_EQ(res.ops, 5u);
      EXPECT_EQ(res.dropped, 6u);
      const auto same_bits = [](const auto& a, const auto& b) {
        return a.size() == b.size() &&
               (a.empty() || std::memcmp(a.data(), b.data(),
                                         a.size() * sizeof(a.front())) == 0);
      };
      EXPECT_TRUE(same_bits(dst.id, before.id));
      EXPECT_TRUE(same_bits(dst.list, before.list));
      EXPECT_TRUE(same_bits(dst.row, before.row));
      EXPECT_TRUE(same_bits(dst.partial, before.partial));
      EXPECT_TRUE(same_bits(dst.rem_p_sq, before.rem_p_sq));
    }
  }
}

}  // namespace
}  // namespace harmony
