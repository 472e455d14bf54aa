#include "core/inductor.h"

#include <algorithm>
#include <cstdint>

namespace hyfd {

Inductor::Inductor(FDTree* tree, MetricsRegistry* metrics)
    : tree_(tree), metrics_(metrics) {
  if (metrics_ != nullptr) {
    update_timer_ = metrics_->GetTimer("inductor.update_ns");
  }
}

void Inductor::Update(std::vector<AttributeSet> new_non_fds) {
  ScopedMetricTimer timer(update_timer_);
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
  uint64_t invalidated = 0;
  uint64_t checks = 0;
  for (const AttributeSet& agree : new_non_fds) {
    // Every zero bit is the RHS of a violated FD X -> rhs with X ⊆ agree.
    // An extension attribute must lie outside the agree set as well: one
    // inside it would leave the FD violated by the same record pair.
    const AttributeSet outside = agree.Complement();
    for (const FDTree::LhsGroup& group :
         tree_->GetGeneralizationGroups(agree, outside)) {
      ForEachBit(group.rhss,
                 [&](int rhs) { tree_->RemoveFd(group.lhs, rhs); });
      invalidated += static_cast<uint64_t>(group.rhss.Count());
      ForEachBit(outside, [&](int attr) {
        // Trivial FDs are never candidates.
        AttributeSet rhss = group.rhss;
        rhss.Reset(attr);
        if (rhss.Empty()) return;
        AttributeSet new_lhs = group.lhs.With(attr);
        ++checks;
        rhss.AndNot(tree_->FindGeneralizedRhssWith(new_lhs, rhss, attr));
        ForEachBit(rhss, [&](int rhs) { tree_->AddFd(new_lhs, rhs); });
      });
    }
  }
  if (metrics_ != nullptr) {
    metrics_->GetCounter("inductor.updates")->Add(1);
    metrics_->GetCounter("inductor.non_fds_folded")->Add(new_non_fds.size());
    metrics_->GetCounter("inductor.fds_invalidated")->Add(invalidated);
    metrics_->GetCounter("inductor.generalization_checks")->Add(checks);
  }
}

}  // namespace hyfd
