#ifndef HYFD_CORE_UCC_LATTICE_H_
#define HYFD_CORE_UCC_LATTICE_H_

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "core/preprocessor.h"
#include "core/refine_kernel.h"
#include "fd/fd_tree.h"
#include "util/attribute_set.h"

namespace hyfd {

// The minimal-UCC candidate lattice that HyUcc::Discover and
// IncrementalHyFd::MinimalUccs share. Candidates live in an FDTree with the
// fixed pseudo-RHS 0: a stored "X -> 0" means "X is a candidate minimal
// UCC", so the tree's generalization machinery carries over unchanged.

/// A fresh lattice, holding only ∅.
FDTree NewUccCandidateTree(int num_attributes);

/// Specializes the lattice with one non-unique set (an agree set): every
/// candidate inside it is replaced by its minimal extensions.
void SpecializeUccCandidates(FDTree* candidates, const AttributeSet& agree);

/// Outcome of one ValidateUccLevel call.
struct UccLevelOutcome {
  /// No node lies at the level's depth: the search is complete.
  bool exhausted = false;
  size_t num_valid = 0;
  size_t num_invalid = 0;
};

/// Decides one candidate X: returns true iff X is unique. For a non-unique
/// X, `extend_by` arrives as X's complement, and the check may drop
/// attributes from it that provably occur in no minimal UCC containing X.
using UccCheck =
    std::function<bool(const AttributeSet& lhs, AttributeSet* extend_by)>;

/// Settles depth `level` of the candidate lattice: every candidate X there
/// stays if `is_unique` accepts it; otherwise it is removed and replaced by
/// its minimal one-attribute extensions by `extend_by` (those with no
/// stored subset). Levels must be settled in increasing order, which keeps
/// the candidates an antichain.
UccLevelOutcome ValidateUccLevel(FDTree* candidates, int level,
                                 const UccCheck& is_unique);

/// The lattice's candidates, sorted by size, then lexicographically.
std::vector<AttributeSet> UccsOf(const FDTree& candidates);

/// Checks whether `lhs` is unique on `data` with the shared refinement
/// kernel; on violation returns one offending record pair. Only the
/// records in the PLIs' clusters are compared, so tombstoned data works,
/// except for ∅, which counts data.num_records (dead rows included):
/// callers over tombstoned data decide ∅ from their live row count.
bool IsUnique(const PreprocessedData& data, const AttributeSet& lhs,
              RefineArena* arena, std::pair<RecordId, RecordId>* violation);

}  // namespace hyfd

#endif  // HYFD_CORE_UCC_LATTICE_H_
