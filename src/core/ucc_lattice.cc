#include "core/ucc_lattice.h"

#include <algorithm>
#include <cstdint>

namespace hyfd {
namespace {

/// The pseudo-RHS of every candidate (see NewUccCandidateTree).
constexpr int kUccMarker = 0;

/// Adds the minimal extensions of the just-removed non-unique candidate
/// `lhs` by one attribute of `attrs` (disjoint from `lhs`). Each extension
/// only needs the generalizations that contain the new attribute: the
/// candidates form an antichain and `lhs` itself is gone.
void ExtendCandidate(FDTree* tree, const AttributeSet& lhs,
                     const AttributeSet& attrs) {
  ForEachBit(attrs, [&](int attr) {
    AttributeSet extended = lhs.With(attr);
    if (!tree->ContainsFdOrGeneralizationWith(extended, kUccMarker, attr)) {
      tree->AddFd(extended, kUccMarker);
    }
  });
}

}  // namespace

FDTree NewUccCandidateTree(int num_attributes) {
  FDTree tree(num_attributes);
  tree.AddFd(AttributeSet(num_attributes), kUccMarker);
  return tree;
}

void SpecializeUccCandidates(FDTree* candidates, const AttributeSet& agree) {
  AttributeSet marker(candidates->num_attributes());
  marker.Set(kUccMarker);
  // Attributes inside the agree set keep the pair agreeing. One tree walk
  // finds the candidates inside it.
  const AttributeSet outside = agree.Complement();
  for (const FDTree::LhsGroup& group :
       candidates->GetGeneralizationGroups(agree, marker)) {
    candidates->RemoveFd(group.lhs, kUccMarker);
    ExtendCandidate(candidates, group.lhs, outside);
  }
}

UccLevelOutcome ValidateUccLevel(FDTree* candidates, int level,
                                 const UccCheck& is_unique) {
  UccLevelOutcome outcome;
  std::vector<FDTree::LevelEntry> entries = candidates->GetLevel(level);
  if (entries.empty()) {
    outcome.exhausted = true;
    return outcome;
  }
  // (non-unique candidate, attributes to extend it by)
  std::vector<std::pair<AttributeSet, AttributeSet>> invalid;
  for (FDTree::LevelEntry& entry : entries) {
    if (!entry.node->fds.Test(kUccMarker)) continue;
    AttributeSet extend_by = entry.lhs.Complement();
    if (is_unique(entry.lhs, &extend_by)) {
      ++outcome.num_valid;
      continue;
    }
    entry.node->fds.Reset(kUccMarker);
    invalid.emplace_back(std::move(entry.lhs), std::move(extend_by));
  }
  // Extend only after the whole level is settled: an extension must see
  // every surviving candidate of this level and none of the removed ones.
  for (const auto& [lhs, extend_by] : invalid) {
    ExtendCandidate(candidates, lhs, extend_by);
  }
  outcome.num_invalid = invalid.size();
  return outcome;
}

std::vector<AttributeSet> UccsOf(const FDTree& candidates) {
  // ToFdSet's canonical order with the single pseudo-RHS is (size, LHS).
  std::vector<AttributeSet> uccs;
  for (const FD& fd : candidates.ToFdSet()) uccs.push_back(fd.lhs);
  return uccs;
}

bool IsUnique(const PreprocessedData& data, const AttributeSet& lhs,
              RefineArena* arena, std::pair<RecordId, RecordId>* violation) {
  if (lhs.Empty()) {
    if (data.num_records < 2) return true;
    *violation = {0, 1};
    return false;
  }
  // Pivot on the attribute with the most (smallest) clusters.
  int pivot = -1;
  for (int attr = lhs.First(); attr != AttributeSet::kNpos;
       attr = lhs.NextAfter(attr)) {
    if (pivot == -1 || data.rank[static_cast<size_t>(attr)] <
                           data.rank[static_cast<size_t>(pivot)]) {
      pivot = attr;
    }
  }
  std::vector<int> other;
  size_t code_bound = 1;
  for (int attr = lhs.First(); attr != AttributeSet::kNpos;
       attr = lhs.NextAfter(attr)) {
    if (attr == pivot) continue;
    other.push_back(attr);
    code_bound = std::max(
        code_bound, data.plis[static_cast<size_t>(attr)].NumStrippedClusters());
  }
  for (const auto& cluster : data.plis[static_cast<size_t>(pivot)].clusters()) {
    const size_t num_groups =
        GroupRowsByCodes(data.records, other.data(), other.size(),
                         cluster.data(), cluster.size(), code_bound, arena);
    // The sequential scan would stop at the first record that repeats an
    // earlier LHS tuple — i.e. at the minimum second-member position over
    // this cluster's groups. Report that exact pair so the suggestion fed to
    // the Sampler is identical to the old hash-probing scan's.
    uint32_t best_second = UINT32_MAX;
    uint32_t best_first = 0;
    for (size_t g = 0; g < num_groups; ++g) {
      const uint32_t begin = arena->group_offsets[g];
      if (arena->group_offsets[g + 1] - begin < 2) continue;
      const uint32_t second = arena->grouped_idx[begin + 1];
      if (second < best_second) {
        best_second = second;
        best_first = arena->grouped_idx[begin];
      }
    }
    if (best_second != UINT32_MAX) {
      *violation = {cluster[best_first], cluster[best_second]};
      return false;
    }
  }
  return true;
}

}  // namespace hyfd
