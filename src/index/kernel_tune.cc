#include "index/kernel_tune.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <vector>

namespace harmony {

namespace {

/// Candidate grids (fixed order — the deterministic tie-break: a later
/// candidate must be strictly faster to displace an earlier one).
constexpr size_t kRowBlocks[] = {4, 6, 8};
constexpr size_t kQueryTiles[] = {2, 4, 8};
constexpr size_t kPrefetches[] = {0, 2, 4, 8};

/// Synthetic workload: enough rows that the row stream outruns L1 (the
/// regime the engines' runs live in), few enough that a full measurement
/// stays in the low milliseconds.
constexpr size_t kTuneRows = 256;
constexpr size_t kTuneGroupQueries = 8;
/// Representative width per bucket (bucket 0 is the sub-cutover portable
/// fall-through and is never measured).
constexpr size_t kBucketWidth[KernelTuneTable::kNumBuckets] = {8, 24, 48, 96,
                                                              192};

/// Deterministic fill; a local LCG keeps the tuner self-contained.
void FillSynthetic(float* out, size_t n, uint64_t seed) {
  uint64_t s = seed * 6364136223846793005ull + 1442695040888963407ull;
  for (size_t i = 0; i < n; ++i) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    // Map to [-1, 1): plenty of mantissa variety, no overflow risk when
    // partial sums accumulate across timing reps.
    out[i] = static_cast<float>(static_cast<int32_t>(s >> 33)) *
             (1.0f / 1073741824.0f);
  }
}

double NowNs() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Min-of-5 timed samples of `fn` run `iters` times each (plus one warmup):
/// on a shared vCPU the minimum is the stable signal, and any residual
/// noise only moves the pick between bit-identical shapes.
template <typename Fn>
double TimeNs(const Fn& fn, size_t iters) {
  fn();
  double best = std::numeric_limits<double>::max();
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = NowNs();
    for (size_t it = 0; it < iters; ++it) fn();
    best = std::min(best, (NowNs() - t0) / static_cast<double>(iters));
  }
  return best;
}

/// Hysteresis of the measured search: a candidate must beat the incumbent
/// by this factor to displace it. The incumbent starts as the tier's
/// default shape, so timing noise degenerates to the known-good default
/// instead of promoting a 1%-lucky stranger.
constexpr double kImprovement = 0.97;

/// Spins `fn` for ~`target_ns` of wall time. After idle, 512-bit code
/// executes at reduced throughput for tens of microseconds while the upper
/// vector lanes power up; a tuner that times inside that window concludes
/// AVX-512 is slower than AVX2 when it is not. Every measured comparison
/// warms the units past that window first.
template <typename Fn>
void WarmUpVectorUnits(const Fn& fn, double target_ns = 2e6) {
  const double t0 = NowNs();
  do {
    fn();
  } while (NowNs() - t0 < target_ns);
}

/// kAuto tier pick: a HARMONY_KERNEL_TIER pin decides outright. Otherwise,
/// when both SIMD tiers are live, time their batch kernels head-to-head
/// once, each at its default shape (any outcome is bit-identical, so noise
/// here is harmless); prefer the wider tier on ties.
KernelTier PickAutoTier() {
  const KernelTier pinned = PinnedKernelTier();
  if (pinned != KernelTier::kAuto) return pinned;
  const bool has512 = KernelTierAvailable(KernelTier::kAvx512);
  const bool has2 = KernelTierAvailable(KernelTier::kAvx2);
  if (!has512) return has2 ? KernelTier::kAvx2 : KernelTier::kPortable;
  if (!has2) return KernelTier::kAvx512;
  const ScanKernelTable& t512 = ScanKernelsFor(KernelTier::kAvx512);
  const ScanKernelTable& t2 = ScanKernelsFor(KernelTier::kAvx2);
  const KernelTuneTable d512 = DefaultKernelTune(KernelTier::kAvx512);
  const KernelTuneTable d2 = DefaultKernelTune(KernelTier::kAvx2);
  // Head-to-head over a couple of widths, scored as the median of paired
  // (avx2, avx512) samples. Host frequency states drift on millisecond
  // scales, so two independently-minimized times can come from different
  // clock regimes; pairing cancels the drift. The wider tier is the
  // incumbent and only loses to a decisive median margin.
  std::vector<double> ratios;
  for (const size_t w : {64, 96, 128}) {
    std::vector<float> q(w), rows(kTuneRows * w), accum(kTuneRows, 0.0f);
    FillSynthetic(q.data(), q.size(), 11);
    FillSynthetic(rows.data(), rows.size(), 12);
    const KernelShape shape2 = d2.shape(Metric::kL2, w);
    const KernelShape shape512 = d512.shape(Metric::kL2, w);
    const size_t iters = 8;
    auto run2 = [&] {
      t2.l2_batch(q.data(), rows.data(), kTuneRows, w, accum.data(), shape2);
    };
    auto run512 = [&] {
      t512.l2_batch(q.data(), rows.data(), kTuneRows, w, accum.data(),
                    shape512);
    };
    WarmUpVectorUnits(run2);
    WarmUpVectorUnits(run512);
    for (int rep = 0; rep < 5; ++rep) {
      const double ns2 = TimeNs(run2, iters);
      const double ns512 = TimeNs(run512, iters);
      ratios.push_back(ns2 / ns512);
    }
  }
  // The guard exists for machines whose sustained 512-bit frequency
  // license costs tens of percent, not to adjudicate a few-percent
  // micro-difference (which run-to-run noise on a shared vCPU swamps):
  // AVX2 has to win by a wide margin in at least three quarters of the
  // pairs to displace the wider incumbent. A machine with a true
  // sustained penalty shows it in essentially every pair.
  constexpr double kTierMargin = 0.90;
  const size_t q3 = (3 * ratios.size()) / 4;
  std::nth_element(ratios.begin(), ratios.begin() + q3, ratios.end());
  return ratios[q3] < kTierMargin ? KernelTier::kAvx2 : KernelTier::kAvx512;
}

/// HARMONY_KERNEL_TUNE, parsed once: a pinned profile for cross-process
/// reproducibility of the *choice* (results never depend on it).
const std::optional<KernelTuneTable>& EnvTune() {
  static const std::optional<KernelTuneTable> tune =
      []() -> std::optional<KernelTuneTable> {
    const char* env = std::getenv("HARMONY_KERNEL_TUNE");
    if (env == nullptr) return std::nullopt;
    KernelTuneTable t;
    if (!KernelTuneTable::Parse(env, &t) || !KernelTierAvailable(t.tier)) {
      std::fprintf(stderr,
                   "HARMONY_KERNEL_TUNE ignored (unparsable profile or "
                   "unavailable tier): %s\n",
                   env);
      return std::nullopt;
    }
    return t;
  }();
  return tune;
}

}  // namespace

bool KernelTuneTable::operator==(const KernelTuneTable& o) const {
  if (tier != o.tier) return false;
  for (size_t m = 0; m < 2; ++m) {
    for (size_t b = 0; b < kNumBuckets; ++b) {
      if (!(shapes[m][b] == o.shapes[m][b])) return false;
    }
  }
  return true;
}

std::string KernelTuneTable::ToString() const {
  std::string out = KernelTierName(tier);
  for (size_t m = 0; m < 2; ++m) {
    out += m == 0 ? " l2=" : " ip=";
    for (size_t b = 0; b < kNumBuckets; ++b) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%s%u.%u.%u", b == 0 ? "" : ",",
                    shapes[m][b].row_block, shapes[m][b].query_tile,
                    shapes[m][b].prefetch);
      out += buf;
    }
  }
  return out;
}

bool KernelTuneTable::Parse(std::string_view profile, KernelTuneTable* out) {
  // "<tier> l2=r.q.p,r.q.p,r.q.p,r.q.p,r.q.p ip=..." — whitespace-split.
  KernelTuneTable t;
  size_t pos = profile.find(' ');
  if (pos == std::string_view::npos) return false;
  if (!ParseKernelTier(profile.substr(0, pos), &t.tier) ||
      t.tier == KernelTier::kAuto) {
    return false;
  }
  std::string_view rest = profile.substr(pos + 1);
  for (size_t m = 0; m < 2; ++m) {
    const std::string_view key = m == 0 ? "l2=" : "ip=";
    while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
    if (rest.substr(0, key.size()) != key) return false;
    rest.remove_prefix(key.size());
    for (size_t b = 0; b < kNumBuckets; ++b) {
      unsigned rb = 0, qt = 0, pf = 0;
      int used = 0;
      if (std::sscanf(std::string(rest.substr(0, 16)).c_str(), "%u.%u.%u%n",
                      &rb, &qt, &pf, &used) != 3) {
        return false;
      }
      if (rb < 1 || rb > 16 || qt < 1 || qt > kMaxQueryTile || pf > 32) {
        return false;
      }
      t.shapes[m][b] = KernelShape{static_cast<uint8_t>(rb),
                                   static_cast<uint8_t>(qt),
                                   static_cast<uint8_t>(pf)};
      rest.remove_prefix(static_cast<size_t>(used));
      if (b + 1 < kNumBuckets) {
        if (rest.empty() || rest.front() != ',') return false;
        rest.remove_prefix(1);
      }
    }
  }
  *out = t;
  return true;
}

KernelTuneTable DefaultKernelTune(KernelTier tier) {
  KernelTuneTable t;
  t.tier = ResolveKernelTier(tier);
  // Every tier prefetches 2 rows ahead and tiles groups by 4 queries. AVX2
  // blocks L2 by 4 rows and IP by 6: IP has no subtract temporary, so 6
  // rows x 2 accumulators plus the two query registers still fit the 16
  // ymm registers, and the wider group amortizes each query load over 6
  // FMAs instead of 4 (the kernel is load-port-bound, so fewer loads per
  // row is the win). AVX-512 blocks both by 8 rows: one zmm accumulator per
  // row makes that free. The portable tier has no register blocking, so its
  // row block is nominal.
  KernelShape l2{4, 4, 2}, ip{6, 4, 2};
  if (t.tier == KernelTier::kAvx512) {
    l2 = KernelShape{8, 4, 2};
    ip = KernelShape{8, 4, 2};
  } else if (t.tier == KernelTier::kPortable) {
    ip = KernelShape{4, 4, 2};
  }
  for (size_t b = 0; b < KernelTuneTable::kNumBuckets; ++b) {
    t.shapes[0][b] = l2;
    t.shapes[1][b] = ip;
  }
  return t;
}

KernelDispatch DefaultDispatch(Metric m, size_t width) {
  static const KernelTuneTable t = DefaultKernelTune(KernelTier::kAuto);
  return t.DispatchFor(m, width);
}

KernelTuneTable MeasureKernelTune(KernelTier tier) {
  const KernelTier resolved =
      tier == KernelTier::kAuto ? PickAutoTier() : ResolveKernelTier(tier);
  KernelTuneTable tune = DefaultKernelTune(resolved);
  const ScanKernelTable& kt = ScanKernelsFor(resolved);
  const bool simd = resolved != KernelTier::kPortable;

  constexpr size_t kMaxW = kBucketWidth[KernelTuneTable::kNumBuckets - 1];
  std::vector<float> rows(kTuneRows * kMaxW), accum(kTuneRows);
  std::vector<float> qdata(kTuneGroupQueries * kMaxW);
  std::vector<float> gaccum(kTuneGroupQueries * kTuneRows);
  FillSynthetic(rows.data(), rows.size(), 1);
  FillSynthetic(qdata.data(), qdata.size(), 2);
  std::vector<const float*> qs(kTuneGroupQueries);
  std::vector<float*> accums(kTuneGroupQueries);

  // Power up the vector units before any timed shape comparison; the
  // incumbent default is timed first and a cold start would handicap it.
  {
    const size_t w = kBucketWidth[1];
    const KernelShape warm = tune.shapes[0][1];
    WarmUpVectorUnits([&] {
      kt.l2_batch(qdata.data(), rows.data(), kTuneRows, w, accum.data(), warm);
    });
  }

  for (size_t m = 0; m < 2; ++m) {
    const auto batch = m == 0 ? kt.l2_batch : kt.ip_batch;
    const auto group = m == 0 ? kt.l2_group : kt.ip_group;
    for (size_t b = 1; b < KernelTuneTable::kNumBuckets; ++b) {
      const size_t w = kBucketWidth[b];
      for (size_t g = 0; g < kTuneGroupQueries; ++g) {
        qs[g] = qdata.data() + g * w;
        accums[g] = gaccum.data() + g * kTuneRows;
      }
      const size_t iters =
          std::max<size_t>(1, (size_t{1} << 17) / (kTuneRows * w));
      // Row block x prefetch on the batch kernel (the portable tier has no
      // register blocking, so only the prefetch axis is searched there).
      // The incumbent is the tier's default shape, timed first; every
      // candidate must improve on the incumbent by 1/kImprovement to win.
      KernelShape best = tune.shapes[m][b];
      const auto time_batch = [&](KernelShape shape) {
        return TimeNs(
            [&] {
              batch(qs[0], rows.data(), kTuneRows, w, accum.data(), shape);
            },
            iters);
      };
      double best_ns = time_batch(best);
      for (const size_t rb : kRowBlocks) {
        if (!simd && rb != best.row_block) continue;
        for (const size_t pf : kPrefetches) {
          KernelShape shape = best;
          shape.row_block = static_cast<uint8_t>(rb);
          shape.prefetch = static_cast<uint8_t>(pf);
          if (shape == best) continue;  // incumbent already timed
          const double ns = time_batch(shape);
          if (ns < kImprovement * best_ns) {
            best_ns = ns;
            best.row_block = shape.row_block;
            best.prefetch = shape.prefetch;
          }
        }
      }
      // Query tile on the group kernel, with the batch winner fixed.
      const auto time_group = [&](KernelShape shape) {
        return TimeNs(
            [&] {
              group(qs.data(), kTuneGroupQueries, rows.data(), kTuneRows, w,
                    accums.data(), shape);
            },
            std::max<size_t>(1, iters / kTuneGroupQueries));
      };
      best_ns = time_group(best);
      for (const size_t qt : kQueryTiles) {
        KernelShape shape = best;
        shape.query_tile = static_cast<uint8_t>(qt);
        if (shape == best) continue;
        const double ns = time_group(shape);
        if (ns < kImprovement * best_ns) {
          best_ns = ns;
          best.query_tile = shape.query_tile;
        }
      }
      tune.shapes[m][b] = best;
    }
  }
  return tune;
}

const KernelTuneTable& ResolveKernelTune(KernelTier requested) {
  const std::optional<KernelTuneTable>& env = EnvTune();
  if (env.has_value() &&
      (requested == KernelTier::kAuto ||
       ResolveKernelTier(requested) == env->tier)) {
    return *env;
  }
  // One measured table per requested tier, cached for the process — the
  // "once per process" of the startup micro-autotuner. Function-local
  // statics make each slot thread-safe.
  switch (requested == KernelTier::kAuto ? KernelTier::kAuto
                                         : ResolveKernelTier(requested)) {
    case KernelTier::kPortable: {
      static const KernelTuneTable t = MeasureKernelTune(KernelTier::kPortable);
      return t;
    }
    case KernelTier::kAvx2: {
      static const KernelTuneTable t = MeasureKernelTune(KernelTier::kAvx2);
      return t;
    }
    case KernelTier::kAvx512: {
      static const KernelTuneTable t = MeasureKernelTune(KernelTier::kAvx512);
      return t;
    }
    case KernelTier::kAuto:
    default: {
      static const KernelTuneTable t = MeasureKernelTune(KernelTier::kAuto);
      return t;
    }
  }
}

}  // namespace harmony
