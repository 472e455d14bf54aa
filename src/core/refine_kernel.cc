#include "core/refine_kernel.h"

#include <algorithm>

#include "util/check.h"

namespace hyfd {
namespace {

inline uint64_t WitnessPos(size_t cluster_index, size_t record_index) {
  return (static_cast<uint64_t>(cluster_index) << 32) |
         static_cast<uint64_t>(record_index);
}

/// Keeps the scan-order-first witness: a later Observe with a smaller
/// position wins, which is what makes per-cluster (rather than per-record)
/// scanning and parallel splits agree with the legacy interleaved pass.
inline bool Observe(RefineWitness* w, uint64_t pos, RecordId a, RecordId b) {
  if (pos >= w->pos) return false;
  const bool fresh = w->pos == kNoWitnessPos;
  w->pos = pos;
  w->a = a;
  w->b = b;
  return fresh;
}

/// Bytes of `n` elements of `v`'s element type.
template <typename T>
size_t Bytes(const std::vector<T>& /*v*/, size_t n) {
  return n * sizeof(T);
}

/// Bytes `v` holds in use (its size, not its capacity).
template <typename T>
size_t InUse(const std::vector<T>& v) {
  return Bytes(v, v.size());
}

/// Bytes of the dense code table sized for codes in [0, bound).
size_t CodeTableBytes(const RefineArena& arena, size_t bound) {
  return Bytes(arena.code_epoch, bound) + Bytes(arena.code_slot, bound);
}

}  // namespace

size_t GroupRowsByCodes(const CompressedRecords& records, const int* attrs,
                        size_t num_attrs, const RecordId* rows, size_t n,
                        size_t code_bound, RefineArena* arena) {
  auto& gi = arena->grouped_idx;
  auto& go = arena->group_offsets;
  gi.clear();
  go.clear();
  arena->dropped = 0;
  go.push_back(0);
  if (n == 0) return 0;
  gi.resize(n);
  for (uint32_t i = 0; i < n; ++i) gi[i] = i;
  go.push_back(static_cast<uint32_t>(n));
  if (num_attrs == 0) return 1;

  arena->EnsureCodeTable(code_bound);
  auto& next_idx = arena->scratch_idx;
  auto& next_go = arena->scratch_offsets;
  auto& sub_of = arena->scratch_group;  // subgroup id per position, this round
  auto& hist = arena->hist;

  // One refinement round per grouping attribute: split every current group
  // by that attribute's cluster code with a stable two-pass counting sort.
  // Subgroup ids are assigned in first-encounter order, so the final group
  // order is the hierarchical first-encounter order — deterministic and
  // independent of any hash function.
  for (size_t round = 0; round < num_attrs; ++round) {
    const int attr = attrs[round];
    const size_t kept = gi.size();
    next_idx.resize(kept);
    sub_of.resize(kept);
    next_go.clear();
    next_go.push_back(0);
    uint32_t write_base = 0;
    for (size_t g = 0; g + 1 < go.size(); ++g) {
      const uint32_t begin = go[g];
      const uint32_t end = go[g + 1];
      ++arena->epoch;
      const uint64_t ep = arena->epoch;
      hist.clear();
      // Pass 1: assign subgroup ids (dense-table lookup, no hashing) and
      // count members; kUniqueCluster rows leave the grouping entirely.
      for (uint32_t p = begin; p < end; ++p) {
        const ClusterId code = records.Cluster(rows[gi[p]], attr);
        if (code == kUniqueCluster) {
          sub_of[p] = UINT32_MAX;
          continue;
        }
        const auto c = static_cast<size_t>(code);
        HYFD_DCHECK(c < code_bound,
                    "GroupRowsByCodes: cluster code exceeds code_bound");
        uint32_t sid;
        if (arena->code_epoch[c] != ep) {
          arena->code_epoch[c] = ep;
          sid = static_cast<uint32_t>(hist.size());
          arena->code_slot[c] = sid;
          hist.push_back(0);
        } else {
          sid = arena->code_slot[c];
        }
        sub_of[p] = sid;
        ++hist[sid];
      }
      // Turn counts into scatter offsets; emit the new group boundaries.
      uint32_t off = write_base;
      for (size_t s = 0; s < hist.size(); ++s) {
        const uint32_t count = hist[s];
        hist[s] = off;
        off += count;
        next_go.push_back(off);
      }
      // Pass 2: stable scatter.
      for (uint32_t p = begin; p < end; ++p) {
        const uint32_t sid = sub_of[p];
        if (sid == UINT32_MAX) continue;
        next_idx[hist[sid]++] = gi[p];
      }
      write_base = off;
    }
    next_idx.resize(write_base);
    gi.swap(next_idx);
    go.swap(next_go);
  }
  arena->dropped = n - gi.size();
  return go.size() - 1;
}

namespace {

/// Compare-to-first shape (no non-pivot LHS attributes): every record of a
/// cluster checks its RHS codes against the cluster's first record. Records
/// are independent, so this is the one shape a giant cluster may split into
/// record ranges across workers.
void RunCompareToFirst(const RefineJob& job, size_t cluster_begin,
                       size_t cluster_end, uint32_t rec_begin, uint32_t rec_end,
                       RefineTaskOut* out) {
  const CompressedRecords& records = *job.records;
  size_t remaining = job.num_rhs;
  for (size_t ci = cluster_begin; ci < cluster_end; ++ci) {
    const auto& cluster =
        (*job.clusters)[job.visit != nullptr ? (*job.visit)[ci] : ci];
    if (cluster.size() < 2) continue;  // tombstoned empty slot
    const ClusterId* first = records.Record(cluster[0]);
    const size_t begin = rec_end > 0 ? std::max<size_t>(rec_begin, 1) : 1;
    const size_t end = rec_end > 0 ? rec_end : cluster.size();
    for (size_t i = begin; i < end; ++i) {
      const ClusterId* rec = records.Record(cluster[i]);
      for (size_t j = 0; j < job.num_rhs; ++j) {
        if (out->witnesses[j].pos != kNoWitnessPos) continue;
        const ClusterId stored = first[job.rhs_attrs[j]];
        if (stored == kUniqueCluster || stored != rec[job.rhs_attrs[j]]) {
          out->witnesses[j] = {WitnessPos(ci, i), cluster[0], cluster[i]};
          if (--remaining == 0) {
            out->complete = false;  // nothing left alive: stop scanning
            return;
          }
        }
      }
    }
  }
}

/// Single non-pivot LHS attribute: group records of a pivot cluster by one
/// cluster code through the dense epoch-stamped table — the drop-in
/// replacement for the legacy `unordered_map<ClusterId, GroupInfo>`, with
/// the same fully interleaved scan order and early exit.
void RunSingleOther(const RefineJob& job, size_t cluster_begin,
                    size_t cluster_end, RefineArena* arena,
                    RefineTaskOut* out) {
  const CompressedRecords& records = *job.records;
  const int other = job.others[0];
  const size_t num_rhs = job.num_rhs;
  arena->EnsureCodeTable(job.other_code_bound);
  // One representative slot per group; the reps buffers are grow-only, so
  // the gauge counts the slots in use rather than their sizes.
  uint32_t max_slots = 0;
  const auto note_scratch = [&] {
    out->scratch_bytes = CodeTableBytes(*arena, job.other_code_bound) +
                         Bytes(arena->reps, max_slots) +
                         Bytes(arena->rep_collect, max_slots) +
                         Bytes(arena->rep_rhs, max_slots * num_rhs);
  };
  size_t remaining = num_rhs;
  for (size_t ci = cluster_begin; ci < cluster_end; ++ci) {
    const auto& cluster =
        (*job.clusters)[job.visit != nullptr ? (*job.visit)[ci] : ci];
    ++arena->epoch;
    const uint64_t ep = arena->epoch;
    uint32_t num_slots = 0;
    for (size_t i = 0; i < cluster.size(); ++i) {
      const RecordId r = cluster[i];
      const ClusterId* rec = records.Record(r);
      const ClusterId code = rec[other];
      if (code == kUniqueCluster) continue;  // unique in LHS: cannot violate
      const auto c = static_cast<size_t>(code);
      HYFD_DCHECK(c < job.other_code_bound,
                  "RunSingleOther: cluster code exceeds other_code_bound");
      if (arena->code_epoch[c] != ep) {
        // First record of its group: becomes the representative.
        arena->code_epoch[c] = ep;
        arena->code_slot[c] = num_slots;
        if (arena->reps.size() <= num_slots) {
          arena->reps.resize(num_slots + 1);
          arena->rep_collect.resize(num_slots + 1);
        }
        // Sized separately from reps: num_rhs varies between jobs sharing
        // this arena, so reps being large enough does not imply rep_rhs is.
        if (arena->rep_rhs.size() < (num_slots + 1) * num_rhs) {
          arena->rep_rhs.resize((num_slots + 1) * num_rhs);
        }
        arena->reps[num_slots] = r;
        arena->rep_collect[num_slots] = -1;
        ClusterId* stored = &arena->rep_rhs[num_slots * num_rhs];
        for (size_t j = 0; j < num_rhs; ++j) stored[j] = rec[job.rhs_attrs[j]];
        max_slots = std::max(max_slots, ++num_slots);
        continue;
      }
      const uint32_t slot = arena->code_slot[c];
      if (job.collect) {
        if (arena->rep_collect[slot] < 0) {
          arena->rep_collect[slot] = static_cast<int32_t>(out->collected.size());
          out->collected.push_back({arena->reps[slot]});
        }
        out->collected[static_cast<size_t>(arena->rep_collect[slot])].push_back(
            r);
      }
      const ClusterId* stored = &arena->rep_rhs[slot * num_rhs];
      for (size_t j = 0; j < num_rhs; ++j) {
        if (out->witnesses[j].pos != kNoWitnessPos) continue;
        if (stored[j] == kUniqueCluster || stored[j] != rec[job.rhs_attrs[j]]) {
          out->witnesses[j] = {WitnessPos(ci, i), arena->reps[slot], r};
          if (--remaining == 0) {
            out->complete = false;
            out->collected.clear();  // partial partition: never cacheable
            note_scratch();
            return;
          }
        }
      }
    }
  }
  note_scratch();
}

/// Two or more non-pivot LHS attributes: group each pivot cluster with the
/// iterative (group, code) refinement, then check every group against its
/// first member. Positions recover the legacy interleaved scan order:
/// within one cluster every not-yet-dead RHS takes the *minimum* violating
/// position over all groups, which is exactly where the record-by-record
/// hash-grouping pass would have killed it.
void RunGeneral(const RefineJob& job, size_t cluster_begin, size_t cluster_end,
                RefineArena* arena, RefineTaskOut* out) {
  const CompressedRecords& records = *job.records;
  const size_t num_rhs = job.num_rhs;
  size_t remaining = num_rhs;
  for (size_t ci = cluster_begin; ci < cluster_end; ++ci) {
    const auto& cluster =
        (*job.clusters)[job.visit != nullptr ? (*job.visit)[ci] : ci];
    const size_t num_groups =
        GroupRowsByCodes(records, job.others, job.num_others, cluster.data(),
                         cluster.size(), job.other_code_bound, arena);
    const uint64_t cluster_base = WitnessPos(ci, 0);
    arena->collect_order.clear();
    for (size_t g = 0; g < num_groups; ++g) {
      const uint32_t begin = arena->group_offsets[g];
      const uint32_t end = arena->group_offsets[g + 1];
      if (end - begin < 2) continue;  // singleton: no pair, nothing collected
      const uint32_t rep_idx = arena->grouped_idx[begin];
      const RecordId rep = cluster[rep_idx];
      const ClusterId* rep_rec = records.Record(rep);
      if (job.collect) {
        arena->collect_order.emplace_back(arena->grouped_idx[begin + 1],
                                          static_cast<uint32_t>(g));
      }
      for (uint32_t p = begin + 1; p < end; ++p) {
        const uint32_t idx = arena->grouped_idx[p];
        const ClusterId* rec = records.Record(cluster[idx]);
        for (size_t j = 0; j < num_rhs; ++j) {
          RefineWitness* w = &out->witnesses[j];
          // Dead in an earlier cluster: skip. Dead in *this* cluster: keep
          // observing — another group may hold an earlier position.
          if (w->pos < cluster_base) continue;
          const ClusterId stored = rep_rec[job.rhs_attrs[j]];
          if (stored == kUniqueCluster || stored != rec[job.rhs_attrs[j]]) {
            if (Observe(w, WitnessPos(ci, idx), rep, cluster[idx])) {
              --remaining;
            }
          }
        }
      }
    }
    if (!cluster.empty()) {
      // Every buffer below was re-sized for this cluster (an empty one
      // returns before the grouping rounds touch the scratch).
      out->scratch_bytes = std::max(
          out->scratch_bytes,
          CodeTableBytes(*arena, job.other_code_bound) +
              InUse(arena->grouped_idx) + InUse(arena->group_offsets) +
              InUse(arena->scratch_idx) + InUse(arena->scratch_offsets) +
              InUse(arena->scratch_group) + InUse(arena->hist) +
              InUse(arena->collect_order));
    }
    if (job.collect) {
      // Emit groups in the order each gained its second record — the order
      // the legacy pass materialized them — so cached partitions (and hence
      // later cache-hit scans) are byte-identical to the old implementation.
      std::sort(arena->collect_order.begin(), arena->collect_order.end());
      for (const auto& [second_pos, g] : arena->collect_order) {
        (void)second_pos;
        const uint32_t begin = arena->group_offsets[g];
        const uint32_t end = arena->group_offsets[g + 1];
        auto& members = out->collected.emplace_back();
        members.reserve(end - begin);
        for (uint32_t p = begin; p < end; ++p) {
          members.push_back(cluster[arena->grouped_idx[p]]);
        }
      }
    }
    if (remaining == 0) {
      out->complete = false;
      out->collected.clear();
      return;
    }
  }
}

}  // namespace

void RunRefineTask(const RefineJob& job, size_t cluster_begin,
                   size_t cluster_end, uint32_t rec_begin, uint32_t rec_end,
                   RefineArena* arena, RefineTaskOut* out) {
  out->witnesses.assign(job.num_rhs, RefineWitness{});
  out->collected.clear();
  out->complete = true;
  out->scratch_bytes = 0;
  if (job.num_rhs == 0) return;
  if (job.num_others == 0) {
    RunCompareToFirst(job, cluster_begin, cluster_end, rec_begin, rec_end, out);
    return;
  }
  HYFD_DCHECK(rec_end == 0,
              "RunRefineTask: record-range splits require the "
              "compare-to-first shape");
  if (job.num_others == 1) {
    RunSingleOther(job, cluster_begin, cluster_end, arena, out);
  } else {
    RunGeneral(job, cluster_begin, cluster_end, arena, out);
  }
}

void MergeTaskOut(RefineTaskOut* into, RefineTaskOut&& from) {
  HYFD_DCHECK(into->witnesses.size() == from.witnesses.size(),
              "MergeTaskOut: outputs of different jobs");
  for (size_t j = 0; j < into->witnesses.size(); ++j) {
    if (from.witnesses[j].pos < into->witnesses[j].pos) {
      into->witnesses[j] = from.witnesses[j];
    }
  }
  into->complete = into->complete && from.complete;
  into->scratch_bytes = std::max(into->scratch_bytes, from.scratch_bytes);
  if (into->collected.empty()) {
    into->collected = std::move(from.collected);
  } else {
    into->collected.insert(into->collected.end(),
                           std::make_move_iterator(from.collected.begin()),
                           std::make_move_iterator(from.collected.end()));
  }
}

}  // namespace hyfd
