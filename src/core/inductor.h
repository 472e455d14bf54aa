#ifndef HYFD_CORE_INDUCTOR_H_
#define HYFD_CORE_INDUCTOR_H_

#include <cstddef>
#include <vector>

#include "fd/fd_tree.h"
#include "util/attribute_set.h"
#include "util/metrics.h"

namespace hyfd {

/// HyFD's Inductor component (paper §7, Algorithm 3).
///
/// Converts non-FD agree sets from the Sampler into the candidate FDTree by
/// successive specialization (FDEP-style): every FD in the tree that the
/// non-FD invalidates is removed and replaced by all minimal, non-trivial,
/// still-plausible specializations. The tree persists across calls, so each
/// sampling round only folds in the *new* non-FDs.
///
/// Each non-FD costs one tree walk: GetGeneralizationGroups() returns every
/// stored X ⊆ agree set with all of its RHSs outside the agree set. Each
/// specialization X ∪ {a} → A then only needs the generalizations that
/// contain `a`: the tree is a per-RHS antichain, X → A was just removed,
/// and so no other subset of X stores A. One FindGeneralizedRhssWith() walk
/// answers that for all of X's invalidated RHSs at once.
class Inductor {
 public:
  /// `tree` must outlive the Inductor; on first use it should be empty —
  /// Update() initializes it with the most general FDs ∅ → A. A non-null
  /// `metrics` registry receives per-update counters and the
  /// `inductor.update_ns` timer: `inductor.fds_invalidated` counts removed
  /// FDs, `inductor.generalization_checks` the restricted lookups (one per
  /// invalidated LHS and extension attribute).
  explicit Inductor(FDTree* tree, MetricsRegistry* metrics = nullptr);

  /// Folds `new_non_fds` into the candidate tree. Sorting by descending
  /// cardinality (longest agree sets first) keeps the tree small during
  /// specialization (paper §7). Returns how many of the removed FDs were
  /// confirmed (FDTree::Node::confirmed): the previously-proven FDs this
  /// update invalidated, which IncrementalHyFd reports as fds_invalidated.
  size_t Update(std::vector<AttributeSet> new_non_fds);

 private:
  FDTree* tree_;
  MetricsRegistry* metrics_;
  Metric* update_timer_ = nullptr;  ///< null without a registry
  bool initialized_ = false;
};

}  // namespace hyfd

#endif  // HYFD_CORE_INDUCTOR_H_
