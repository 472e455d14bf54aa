#ifndef HYFD_TESTS_LEGACY_INDUCTOR_H_
#define HYFD_TESTS_LEGACY_INDUCTOR_H_

// The per-RHS Inductor, preserved as the differential oracle for the
// one-walk Inductor (src/core/inductor.h).
//
// This implementation walks the FD tree once per (non-FD, RHS) pair with
// the FDTree's former GetFdAndGeneralizations lookup (reproduced below over
// the tree's public node API) and checks every specialization against all
// of its generalizations. inductor_test diffs the production Inductor
// against it on random non-FD batches. Behavior must stay frozen — fix bugs
// in the production Inductor, not here.

#include <algorithm>
#include <vector>

#include "fd/fd_tree.h"
#include "util/attribute_set.h"

namespace hyfd {
namespace legacy {

/// HyFD's Inductor as of before the one-walk rewrite.
class LegacyInductor {
 public:
  explicit LegacyInductor(FDTree* tree) : tree_(tree) {}

  void Update(std::vector<AttributeSet> new_non_fds) {
    if (!initialized_) {
      tree_->AddMostGeneralFds();
      initialized_ = true;
    }
    // Longest agree sets first: their specializations prune the most
    // generalization lookups for the shorter ones (Algorithm 3 line 1).
    std::sort(new_non_fds.begin(), new_non_fds.end(),
              [](const AttributeSet& a, const AttributeSet& b) {
                return a.Count() > b.Count();
              });
    for (const AttributeSet& lhs : new_non_fds) {
      // Every zero bit is the RHS of a violated FD lhs -> rhs.
      AttributeSet rhss = lhs.Complement();
      ForEachBit(rhss, [&](int rhs) { Specialize(lhs, rhs); });
    }
  }

 private:
  static void CollectGeneralizations(const FDTree::Node* node,
                                     const AttributeSet& lhs, int rhs,
                                     int from, AttributeSet* path,
                                     std::vector<AttributeSet>* out) {
    if (node->fds.Test(rhs)) out->push_back(*path);
    if (!node->rhs_attrs.Test(rhs)) return;
    for (int attr = from < 0 ? lhs.First() : lhs.NextAfter(from);
         attr != AttributeSet::kNpos; attr = lhs.NextAfter(attr)) {
      const FDTree::Node* child = node->Child(attr);
      if (child == nullptr) continue;
      path->Set(attr);
      CollectGeneralizations(child, lhs, rhs, attr, path, out);
      path->Reset(attr);
    }
  }

  std::vector<AttributeSet> GetFdAndGeneralizations(const AttributeSet& lhs,
                                                    int rhs) const {
    std::vector<AttributeSet> out;
    AttributeSet path(tree_->num_attributes());
    CollectGeneralizations(tree_->root(), lhs, rhs, -1, &path, &out);
    return out;
  }

  void Specialize(const AttributeSet& non_fd_lhs, int rhs) {
    // All stored FDs X -> rhs with X ⊆ non_fd_lhs are invalid.
    std::vector<AttributeSet> invalid_lhss =
        GetFdAndGeneralizations(non_fd_lhs, rhs);
    for (const AttributeSet& invalid_lhs : invalid_lhss) {
      tree_->RemoveFd(invalid_lhs, rhs);
      // Extend by any attribute outside the non-FD's agree set (an attribute
      // inside it would leave the FD violated by the same record pair) and
      // different from the RHS.
      const int m = tree_->num_attributes();
      for (int attr = 0; attr < m; ++attr) {
        if (non_fd_lhs.Test(attr) || attr == rhs) continue;
        AttributeSet new_lhs = invalid_lhs.With(attr);
        if (tree_->ContainsFdOrGeneralization(new_lhs, rhs)) continue;
        tree_->AddFd(new_lhs, rhs);
      }
    }
  }

  FDTree* tree_;
  bool initialized_ = false;
};

}  // namespace legacy
}  // namespace hyfd

#endif  // HYFD_TESTS_LEGACY_INDUCTOR_H_
