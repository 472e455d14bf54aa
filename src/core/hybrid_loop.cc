#include "core/hybrid_loop.h"

#include "util/check.h"
#include "util/timer.h"

namespace hyfd {

HybridLoopOutcome RunHybridLoop(
    [[maybe_unused]] FDTree* tree,
    const std::function<void(RecordPairs)>& phase1,
    const std::function<ValidatorResult()>& phase2, RecordPairs first_input) {
  HybridLoopOutcome outcome;
  RecordPairs input = std::move(first_input);
  Timer timer;
  while (true) {
    timer.Restart();
    phase1(std::move(input));
    outcome.sampling_seconds += timer.ElapsedSeconds();
    // Audit seam: Phase 1 just rewrote the positive cover.
    HYFD_AUDIT_ONLY(tree->CheckInvariants());

    timer.Restart();
    ValidatorResult result = phase2();
    outcome.validation_seconds += timer.ElapsedSeconds();
    // Audit seam: Phase 2 pruned invalid candidates and specialized them.
    HYFD_AUDIT_ONLY(tree->CheckInvariants());
    if (result.done) {
      outcome.last_suggestions = std::move(result.comparison_suggestions);
      return outcome;
    }
    ++outcome.phase_switches;  // Phase 2 pausing and re-entering Phase 1
    input = std::move(result.comparison_suggestions);
  }
}

}  // namespace hyfd
