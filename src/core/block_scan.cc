#include "core/block_scan.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/pruning.h"
#include "index/scan_kernel.h"
#include "util/logging.h"

namespace harmony {

namespace {

/// Cross-run streaming prefetch (the kernels' kPrefetchRows distance): touch
/// the head rows of the *next* candidate run while the current run's kernel
/// streams, so the walk does not stall on the list-slice boundary. A pure
/// memory hint — never reads out of bounds (capped by the slice's row
/// count) and never changes results.
inline void PrefetchRunHead(const DimSlicedMatrix& slice, size_t r0) {
  const size_t limit = std::min(r0 + kPrefetchRows, slice.num_rows());
  for (size_t r = r0; r < limit; ++r) {
    __builtin_prefetch(slice.Row(r), 0 /*read*/, 1 /*low locality*/);
  }
}

/// Folds one row's raw ADC sum into the candidate's running partial and
/// conservative prune bound (docs/quantization.md). Scalar on purpose: the
/// batched path calls it row by row after the adc_batch kernel, so reference
/// and batched PQ scans share one arithmetic sequence.
///
/// `partial` is the rerank's ranking score: the midpoint of the conservative
/// interval around the true partial. L2 brackets ||q-p||_d between
/// (sqrt(adc) -+ err)^2, whose midpoint is adc + err^2 — rows whose codes
/// reconstruct poorly carry the least trustworthy ADC estimates and rank
/// behind equally-scored rows with tight codes, which measurably sharpens
/// the depth pick. IP brackets <q,p>_d symmetrically (adc -+ ||q|| err), so
/// its midpoint is the raw sum. `bound` keeps the sound end of the interval
/// for the monotone prune masks.
inline void AccumulateAdc(const BlockScanParams& p, bool use_ip, float adc,
                          float err, float* partial, float* bound) {
  if (use_ip) {
    *partial += adc;
    // <q,p> <= <q,p_hat> + ||q|| * ||p - p_hat|| (Cauchy–Schwarz).
    *bound += adc + p.q_band_norm * err;
  } else {
    *partial += adc + err * err;
    // ||q-p|| >= ||q-p_hat|| - ||p-p_hat|| (triangle inequality).
    const float t = std::sqrt(adc) - err;
    *bound += t > 0.0f ? t * t : 0.0f;
  }
}

/// Historical per-candidate loop: single-row kernels, scalar prune test,
/// compaction interleaved with accumulation. Kept as the bitwise reference
/// the batched path is regression-tested against.
size_t ScanBlockReference(const BlockScanParams& p, size_t begin, size_t count,
                          int64_t* id, int32_t* list, int32_t* row,
                          float* partial, float* rem_p_sq, float* bound,
                          BlockScanCounters* counters) {
  const ScanKernelTable& kt = *p.kernels;
  const bool use_ip = p.metric != Metric::kL2;
  const bool use_pq = p.luts != nullptr;
  size_t w = 0;
  for (size_t i = begin; i < begin + count; ++i) {
    if (p.prune && CanPrune(p.metric, use_pq ? bound[i] : partial[i],
                            p.use_norms ? rem_p_sq[i] : 0.0f, p.rem_q_sq,
                            p.tau)) {
      ++counters->dropped;
      continue;
    }
    const ListSlice* ls = p.slices[static_cast<size_t>(list[i])];
    HARMONY_CHECK_MSG(ls != nullptr, "missing list slice on machine");
    if (use_pq) {
      const float* lut = p.luts[static_cast<size_t>(list[i])];
      const size_t r = static_cast<size_t>(row[i]);
      const uint8_t* code = ls->codes.data() + r * p.code_size;
      float adc = 0.0f;
      for (size_t m = 0; m < p.code_size; ++m) {
        adc += lut[m * p.ksub + code[m]];
      }
      AccumulateAdc(p, use_ip, adc, ls->code_err[r], &partial[i], &bound[i]);
      if (use_ip && p.use_norms) rem_p_sq[i] -= ls->block_norm_sq[r];
      counters->ops += DistanceOpCost(p.code_size);
    } else {
      const float* vrow = ls->slice.Row(static_cast<size_t>(row[i]));
      if (use_ip) {
        partial[i] += kt.ip_row(p.q_slice, vrow, p.width);
        if (p.use_norms) {
          rem_p_sq[i] -= ls->block_norm_sq[static_cast<size_t>(row[i])];
        }
      } else {
        partial[i] += kt.l2_row(p.q_slice, vrow, p.width);
      }
      counters->ops += DistanceOpCost(p.width);
    }
    const size_t dst = begin + w;
    id[dst] = id[i];
    list[dst] = list[i];
    row[dst] = row[i];
    partial[dst] = partial[i];
    if (p.use_norms) rem_p_sq[dst] = rem_p_sq[i];
    if (use_pq) bound[dst] = bound[i];
    ++w;
  }
  return w;
}

/// Pass 1 of the batched path: evaluate the CanPrune bounds
/// kPruneMaskWidth candidates at a time into a survivor mask, compacting
/// the SoA arrays in place — no row data is touched for pruned candidates.
size_t PruneCompact(const BlockScanParams& p, size_t begin, size_t count,
                    int64_t* id, int32_t* list, int32_t* row, float* partial,
                    float* rem_p_sq, float* bound, BlockScanCounters* counters) {
  const ScanKernelTable& kt = *p.kernels;
  const bool use_ip = p.metric != Metric::kL2;
  const bool use_pq = p.luts != nullptr;
  // PQ streams test the conservative bound column with the same mask
  // kernels; the bound is a sound stand-in for the exact partial (lower
  // bound for L2, upper bound for IP), so pruning stays monotone.
  const float* gate = use_pq ? bound : partial;
  size_t w = 0;  // Write offset relative to `begin`.
  size_t i = 0;
  while (i < count) {
    const size_t chunk = std::min(kPruneMaskWidth, count - i);
    uint64_t mask;
    if (!use_ip) {
      mask = kt.prune_mask_l2(gate + begin + i, chunk, p.tau);
    } else if (p.use_norms) {
      mask = kt.prune_mask_ip(gate + begin + i, rem_p_sq + begin + i,
                              chunk, p.rem_q_sq, p.tau);
    } else {
      // IP without the norm column cannot occur in the engines (pruning
      // needs > 1 block, which materializes norms); fall back to the exact
      // scalar bound for completeness.
      mask = 0;
      for (size_t j = 0; j < chunk; ++j) {
        if (CanPrune(p.metric, gate[begin + i + j], 0.0f, p.rem_q_sq,
                     p.tau)) {
          mask |= uint64_t{1} << j;
        }
      }
    }
    if (mask == 0 && w == i) {
      // Nothing pruned and no gap accumulated yet: the chunk is already in
      // place.
      w += chunk;
      i += chunk;
      continue;
    }
    for (size_t j = 0; j < chunk; ++j) {
      if ((mask & (uint64_t{1} << j)) != 0) {
        ++counters->dropped;
        continue;
      }
      const size_t src = begin + i + j;
      const size_t dst = begin + w;
      if (dst != src) {
        id[dst] = id[src];
        list[dst] = list[src];
        row[dst] = row[src];
        partial[dst] = partial[src];
        if (p.use_norms) rem_p_sq[dst] = rem_p_sq[src];
        if (use_pq) bound[dst] = bound[src];
      }
      ++w;
    }
    i += chunk;
  }
  return w;
}

/// Chunk size of the adc_batch scratch buffer: big enough to amortize the
/// kernel call, small enough for the stack.
constexpr size_t kAdcChunk = 256;

/// PQ twin of a batched run: the code rows stream through the ADC kernel in
/// kAdcChunk tiles, then a scalar post-pass folds each row's ADC sum into
/// the partial/bound columns — the same AccumulateAdc sequence the
/// reference loop runs, so the two PQ paths are bit-identical.
void ScanCodeRun(const BlockScanParams& p, bool use_ip, const ListSlice* ls,
                 const float* lut, size_t r0, size_t run, float* partial,
                 float* rem_p_sq, float* bound) {
  const ScanKernelTable& kt = *p.kernels;
  float adc[kAdcChunk];
  size_t done = 0;
  while (done < run) {
    const size_t n = std::min(kAdcChunk, run - done);
    const uint8_t* codes = ls->codes.data() + (r0 + done) * p.code_size;
    kt.adc_batch(lut, p.ksub, codes, p.code_size, n, adc);
    const float* err = ls->code_err.data() + r0 + done;
    for (size_t t = 0; t < n; ++t) {
      AccumulateAdc(p, use_ip, adc[t], err[t], &partial[done + t],
                    &bound[done + t]);
    }
    if (use_ip && p.use_norms) {
      const float* bn = ls->block_norm_sq.data() + r0 + done;
      for (size_t t = 0; t < n; ++t) rem_p_sq[done + t] -= bn[t];
    }
    done += n;
  }
}

/// Pass 2 of the batched path: split the (list-major, row-ascending)
/// survivors into runs of consecutive rows of one list slice and stream
/// each run through the batched kernels.
void ScanRuns(const BlockScanParams& p, size_t begin, size_t survivors,
              const int32_t* list, const int32_t* row, float* partial,
              float* rem_p_sq, float* bound) {
  const ScanKernelTable& kt = *p.kernels;
  const bool use_ip = p.metric != Metric::kL2;
  const bool use_pq = p.luts != nullptr;
  size_t j = 0;
  while (j < survivors) {
    const int32_t li = list[begin + j];
    const ListSlice* ls = p.slices[static_cast<size_t>(li)];
    HARMONY_CHECK_MSG(ls != nullptr, "missing list slice on machine");
    const size_t r0 = static_cast<size_t>(row[begin + j]);
    size_t run = 1;
    while (j + run < survivors && list[begin + j + run] == li &&
           static_cast<size_t>(row[begin + j + run]) == r0 + run) {
      ++run;
    }
    // Cross-run streaming: while this run's kernel prefetches within the
    // run, the boundary into the next run (usually another list's slice)
    // has no coverage — hint its head rows now.
    if (!use_pq && j + run < survivors) {
      const int32_t nli = list[begin + j + run];
      const ListSlice* nls = p.slices[static_cast<size_t>(nli)];
      if (nls != nullptr) {
        PrefetchRunHead(nls->slice, static_cast<size_t>(row[begin + j + run]));
      }
    }
    if (use_pq) {
      // Runs never cross lists, so one residual ADC table covers the run.
      ScanCodeRun(p, use_ip, ls, p.luts[static_cast<size_t>(li)], r0, run,
                  partial + begin + j,
                  rem_p_sq == nullptr ? nullptr : rem_p_sq + begin + j,
                  bound + begin + j);
    } else {
      const float* rows = ls->slice.RowBlock(r0, run);
      if (use_ip) {
        kt.ip_batch(p.q_slice, rows, run, p.width, partial + begin + j);
        if (p.use_norms) {
          const float* bn = ls->block_norm_sq.data() + r0;
          for (size_t t = 0; t < run; ++t) rem_p_sq[begin + j + t] -= bn[t];
        }
      } else {
        kt.l2_batch(p.q_slice, rows, run, p.width, partial + begin + j);
      }
    }
    j += run;
  }
}

}  // namespace

size_t ScanBlock(const BlockScanParams& p, size_t begin, size_t count,
                 int64_t* id, int32_t* list, int32_t* row, float* partial,
                 float* rem_p_sq, float* bound, BlockScanCounters* counters) {
  if (!p.use_batched) {
    return ScanBlockReference(p, begin, count, id, list, row, partial,
                              rem_p_sq, bound, counters);
  }
  size_t w = count;
  if (p.prune) {
    w = PruneCompact(p, begin, count, id, list, row, partial, rem_p_sq, bound,
                     counters);
  }
  ScanRuns(p, begin, w, list, row, partial, rem_p_sq, bound);
  counters->ops += static_cast<uint64_t>(w) *
                   DistanceOpCost(p.luts != nullptr ? p.code_size : p.width);
  return w;
}

namespace {

/// A member's contiguous candidate range for one IVF list (rows ascending;
/// gaps where candidates were pruned). `cursor` advances as tiles are
/// consumed.
struct ListSeg {
  size_t member;
  size_t cursor;
  size_t end;
};

/// One distinct IVF list touched by the group, in first-appearance order
/// across members (within a stage every candidate is touched exactly once,
/// so list processing order cannot affect bits).
struct ListWork {
  int32_t global_list;
  const ListSlice* ls;
  std::vector<ListSeg> segs;
};

}  // namespace

uint64_t ScanBlockGroup(GroupMemberScan* members, size_t num_members) {
  if (num_members == 0) return 0;
  const BlockScanParams& p = members[0].params;
  const bool use_ip = p.metric != Metric::kL2;
  const bool use_pq = p.luts != nullptr;
  const uint64_t row_bytes = use_pq ? p.code_size : p.width * sizeof(float);
  if (!p.use_batched) {
    // Reference mode: solo reference scans, one per member. No sharing, so
    // every survivor streams its own row.
    uint64_t bytes = 0;
    for (size_t m = 0; m < num_members; ++m) {
      GroupMemberScan& mem = members[m];
      mem.survivors = ScanBlockReference(
          mem.params, 0, mem.count, mem.id, mem.list, mem.row,
          mem.partial, mem.rem_p_sq, mem.bound, &mem.counters);
      bytes += static_cast<uint64_t>(mem.survivors) * row_bytes;
    }
    return bytes;
  }

  // Pass 1: per-member prune-compaction, each against its own tau.
  for (size_t m = 0; m < num_members; ++m) {
    GroupMemberScan& mem = members[m];
    if (mem.params.prune) {
      mem.survivors =
          PruneCompact(mem.params, 0, mem.count, mem.id, mem.list,
                       mem.row, mem.partial, mem.rem_p_sq, mem.bound,
                       &mem.counters);
    } else {
      mem.survivors = mem.count;
    }
    mem.counters.ops +=
        static_cast<uint64_t>(mem.survivors) *
        DistanceOpCost(use_pq ? p.code_size : p.width);
  }

  // Segment discovery: survivors are list-major, so each member contributes
  // one contiguous segment per probed list; match segments across members by
  // global list id, keeping first-appearance order.
  std::vector<ListWork> lists;
  for (size_t m = 0; m < num_members; ++m) {
    const GroupMemberScan& mem = members[m];
    size_t j = 0;
    while (j < mem.survivors) {
      const int32_t li = mem.list[j];
      const size_t b = j;
      while (j < mem.survivors && mem.list[j] == li) ++j;
      const int32_t gl = mem.global_lists[static_cast<size_t>(li)];
      const ListSlice* ls = mem.params.slices[static_cast<size_t>(li)];
      HARMONY_CHECK_MSG(ls != nullptr, "missing list slice on machine");
      ListWork* work = nullptr;
      for (ListWork& lw : lists) {
        if (lw.global_list == gl) {
          work = &lw;
          break;
        }
      }
      if (work == nullptr) {
        lists.push_back(ListWork{gl, ls, {}});
        work = &lists.back();
      }
      HARMONY_CHECK_MSG(work->ls == ls, "co-probing members disagree on slice");
      work->segs.push_back(ListSeg{m, b, j});
    }
  }

  // Pass 2: per list, merge-walk the members' row streams into row-aligned
  // tiles. A tile is a run of consecutive rows that every member of the
  // subset S wants next; it is cut short where a member outside S would
  // join, so divergent streams re-align at the earliest opportunity.
  const ScanKernelTable& kt = *p.kernels;
  std::vector<const float*> qs(num_members);
  std::vector<float*> accums(num_members);
  std::vector<ListSeg*> active(num_members);
  uint64_t bytes = 0;
  for (ListWork& lw : lists) {
    for (;;) {
      int32_t rmin = -1;
      for (ListSeg& seg : lw.segs) {
        if (seg.cursor >= seg.end) continue;
        const int32_t r = members[seg.member].row[seg.cursor];
        if (rmin < 0 || r < rmin) rmin = r;
      }
      if (rmin < 0) break;
      size_t len = std::numeric_limits<size_t>::max();
      size_t ns = 0;
      for (ListSeg& seg : lw.segs) {
        if (seg.cursor >= seg.end) continue;
        const GroupMemberScan& mem = members[seg.member];
        const int32_t r = mem.row[seg.cursor];
        if (r == rmin) {
          size_t run = 1;
          while (seg.cursor + run < seg.end &&
                 mem.row[seg.cursor + run] == rmin + static_cast<int32_t>(run)) {
            ++run;
          }
          len = std::min(len, run);
          active[ns++] = &seg;
        } else {
          // A member waiting at a later row caps the tile so it can join
          // the next one.
          len = std::min(len, static_cast<size_t>(r - rmin));
        }
      }
      if (use_pq) {
        // The code tile is streamed once for the subset; per member the
        // ADC accumulation is the solo ScanCodeRun sequence (each member
        // has its own LUT, so there is no cross-query ADC kernel — the
        // shared stream is the byte win, the compute is already cheap).
        for (size_t s = 0; s < ns; ++s) {
          GroupMemberScan& mem = members[active[s]->member];
          // The segment's member-local list id selects the member's
          // residual ADC table for this list (constant across the segment).
          const float* lut =
              mem.params.luts[static_cast<size_t>(mem.list[active[s]->cursor])];
          ScanCodeRun(mem.params, use_ip, lw.ls, lut,
                      static_cast<size_t>(rmin), len,
                      mem.partial + active[s]->cursor,
                      mem.rem_p_sq == nullptr
                          ? nullptr
                          : mem.rem_p_sq + active[s]->cursor,
                      mem.bound + active[s]->cursor);
        }
      } else {
        const float* rows =
            lw.ls->slice.RowBlock(static_cast<size_t>(rmin), len);
        // Merge-walk streaming: the tile's kernel prefetches within the
        // tile; hint the rows just past it (the likely next tile of this
        // list) so the walk crosses tile boundaries without a cold stall.
        PrefetchRunHead(lw.ls->slice, static_cast<size_t>(rmin) + len);
        if (ns == 1) {
          const GroupMemberScan& mem = members[active[0]->member];
          float* acc = mem.partial + active[0]->cursor;
          if (use_ip) {
            kt.ip_batch(mem.params.q_slice, rows, len, p.width, acc);
          } else {
            kt.l2_batch(mem.params.q_slice, rows, len, p.width, acc);
          }
        } else {
          for (size_t s = 0; s < ns; ++s) {
            const GroupMemberScan& mem = members[active[s]->member];
            qs[s] = mem.params.q_slice;
            accums[s] = mem.partial + active[s]->cursor;
          }
          if (use_ip) {
            kt.ip_group(qs.data(), ns, rows, len, p.width, accums.data());
          } else {
            kt.l2_group(qs.data(), ns, rows, len, p.width, accums.data());
          }
        }
        if (use_ip && p.use_norms) {
          const float* bn =
              lw.ls->block_norm_sq.data() + static_cast<size_t>(rmin);
          for (size_t s = 0; s < ns; ++s) {
            float* rp = members[active[s]->member].rem_p_sq + active[s]->cursor;
            for (size_t t = 0; t < len; ++t) rp[t] -= bn[t];
          }
        }
      }
      for (size_t s = 0; s < ns; ++s) active[s]->cursor += len;
      bytes += static_cast<uint64_t>(len) * row_bytes;
    }
  }
  return bytes;
}

}  // namespace harmony
