#ifndef HYFD_CORE_REFINE_KERNEL_H_
#define HYFD_CORE_REFINE_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pli/compressed_records.h"
#include "pli/pli.h"

namespace hyfd {

/// Position of a violation witness inside one refinement job: the global
/// scan position `(cluster index in visit order << 32) | record index in
/// cluster`. Witnesses merge across parallel subtasks by taking the minimum
/// position, so the surviving witness per RHS is the first one in scan order
/// regardless of how the job was split — the property that keeps the
/// Validator's comparison suggestions bit-identical for any thread count.
inline constexpr uint64_t kNoWitnessPos = ~uint64_t{0};

/// One violation witness: the record pair that first proved lhs -> rhs
/// wrong, plus its scan position (kNoWitnessPos = the RHS survived).
struct RefineWitness {
  uint64_t pos = kNoWitnessPos;
  RecordId a = 0;
  RecordId b = 0;
};

/// Per-worker scratch arena of the refinement kernel.
///
/// All grouping state lives here — the epoch-stamped dense code table that
/// replaces the old `unordered_map<ClusterId, …>` / vector-keyed hash maps,
/// the ping-pong index buffers of the iterative (group, code) refinement,
/// and the per-group representative storage of the interleaved single-other
/// pass. Buffers grow to their high-water mark and are reused across every
/// cluster, node, and level of a run: the per-record hot path performs no
/// allocation and no hashing. One arena per pool worker (plus one for the
/// calling thread); arenas are NOT thread-safe and must never be shared
/// between concurrently running tasks.
class RefineArena {
 public:
  // --- Epoch-stamped dense code table (code -> slot). ----------------------
  // `code_epoch[c] == epoch` marks the entry live; bumping `epoch` clears
  // the whole table in O(1). Codes are dense cluster ids (PR 6), so the
  // table is a flat array — no hashing, no per-cluster clearing.
  std::vector<uint64_t> code_epoch;
  std::vector<uint32_t> code_slot;
  uint64_t epoch = 0;

  /// Grows the code table to cover codes in [0, bound). New entries carry
  /// epoch 0, which is never current (the first use pre-increments).
  void EnsureCodeTable(size_t bound) {
    if (code_epoch.size() < bound) {
      code_epoch.resize(bound, 0);
      code_slot.resize(bound, 0);
    }
  }

  // --- GroupRowsByCodes outputs. -------------------------------------------
  /// Kept row indexes (positions into the caller's `rows` span) in stable
  /// group-contiguous order: groups appear in hierarchical first-encounter
  /// order, rows within a group in original scan order.
  std::vector<uint32_t> grouped_idx;
  /// Group start offsets into `grouped_idx`; size = num_groups + 1.
  std::vector<uint32_t> group_offsets;
  /// Rows dropped for carrying kUniqueCluster in a grouping attribute.
  size_t dropped = 0;

  // --- Internal scratch (grouping rounds, counting sorts). -----------------
  std::vector<uint32_t> scratch_idx;
  std::vector<uint32_t> scratch_offsets;
  std::vector<uint32_t> scratch_group;
  std::vector<uint32_t> hist;

  // --- Interleaved single-other pass: per-group representative storage. ----
  std::vector<RecordId> reps;
  std::vector<ClusterId> rep_rhs;    ///< reps.size() × num_rhs cluster ids
  std::vector<int32_t> rep_collect;  ///< collected-cluster slot or -1

  // --- Collection order scratch: (second-member position, group) pairs, so
  // collected clusters appear in the order each group gained its second
  // record — byte-identical to the legacy hash-grouping pass.
  std::vector<std::pair<uint32_t, uint32_t>> collect_order;
};

/// One refinement job: simultaneously check lhs -> rhs for every rhs in
/// `rhs_attrs` over the clusters of the pivot attribute's PLI (or of a
/// cached LHS partition). The kernel never hashes: grouping inside a pivot
/// cluster runs over dense cluster codes via the arena's flat tables.
struct RefineJob {
  const CompressedRecords* records = nullptr;
  /// Pivot (or cached-partition) clusters, each a sorted record-id list.
  const std::vector<std::vector<RecordId>>* clusters = nullptr;
  /// Optional subset of cluster indexes to scan (restricted/incremental
  /// mode); nullptr = all clusters. Witness positions index into this visit
  /// order, so splits of the same job always agree on positions.
  const std::vector<uint32_t>* visit = nullptr;
  /// Remaining (non-pivot) LHS attributes; empty for the single-attribute
  /// LHS and cached-partition shapes (every record compares against its
  /// cluster's first record — no grouping at all).
  const int* others = nullptr;
  size_t num_others = 0;
  /// Exclusive upper bound on the cluster codes of the `others` attributes
  /// (max stripped-cluster count); sizes the arena's dense code table.
  size_t other_code_bound = 0;
  const int* rhs_attrs = nullptr;
  size_t num_rhs = 0;
  /// Assemble the grouped LHS partition as stripped clusters (PliCache
  /// warm-up). Only meaningful with num_others >= 1.
  bool collect = false;
};

/// Output of one task (a whole job, or one cluster/record range of a split
/// job).
struct RefineTaskOut {
  /// One cell per rhs_attrs entry; pos == kNoWitnessPos means the RHS
  /// survived this task's range.
  std::vector<RefineWitness> witnesses;
  /// Collected partition clusters of this range (job.collect only), in
  /// deterministic scan order.
  std::vector<std::vector<RecordId>> collected;
  /// False iff the task stopped early because every RHS was already
  /// violated — `collected` is then partial and must not be cached. A task
  /// only ever stops early when all RHSs are dead globally, so a job with
  /// any surviving RHS always has every task complete.
  bool complete = true;
  /// Most arena scratch the task had in use after grouping one cluster: the
  /// code table it sized plus the fill of the per-row buffers. It is
  /// recorded from the buffers themselves and depends on the task alone,
  /// not on which worker's arena ran it or what that arena ran before.
  size_t scratch_bytes = 0;
};

/// Runs one task of `job` over clusters [cluster_begin, cluster_end) of the
/// visit order. When `rec_end > 0`, the task instead covers records
/// [rec_begin, rec_end) of the single cluster `cluster_begin` — only legal
/// for the compare-to-first shape (num_others == 0), which is the one shape
/// whose records are independent (a giant pivot cluster splits across
/// workers this way). Scratch comes from `arena`; results land in `out`
/// (overwritten).
void RunRefineTask(const RefineJob& job, size_t cluster_begin,
                   size_t cluster_end, uint32_t rec_begin, uint32_t rec_end,
                   RefineArena* arena, RefineTaskOut* out);

/// Merges `from` into `into`: per-RHS minimum witness position, collected
/// clusters appended in call order. Call in task order so collected cluster
/// order stays deterministic.
void MergeTaskOut(RefineTaskOut* into, RefineTaskOut&& from);

/// Groups the `n` rows of `rows` by their cluster-code tuple over `attrs`
/// (schema attribute indexes) via iterative (group, code) refinement on the
/// arena's dense tables — the PliBuilder idiom, hash-free. Rows carrying
/// kUniqueCluster in any grouping attribute are dropped (they cannot collide
/// with anything). `code_bound` must exceed every cluster code of `attrs`
/// (records.num_records() is always safe; the max stripped-cluster count is
/// tight). With num_attrs == 0 all rows form one group. Returns the group
/// count; results are in arena->grouped_idx / group_offsets / dropped.
size_t GroupRowsByCodes(const CompressedRecords& records, const int* attrs,
                        size_t num_attrs, const RecordId* rows, size_t n,
                        size_t code_bound, RefineArena* arena);

}  // namespace hyfd

#endif  // HYFD_CORE_REFINE_KERNEL_H_
