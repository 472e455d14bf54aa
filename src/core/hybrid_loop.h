#ifndef HYFD_CORE_HYBRID_LOOP_H_
#define HYFD_CORE_HYBRID_LOOP_H_

#include <functional>
#include <utility>
#include <vector>

#include "core/validator.h"
#include "fd/fd_tree.h"

namespace hyfd {

/// What one run of the hybrid loop did.
struct HybridLoopOutcome {
  /// Times Phase 2 paused and handed control back to Phase 1.
  int phase_switches = 0;
  double sampling_seconds = 0;    ///< wall time inside Phase 1
  double validation_seconds = 0;  ///< wall time inside Phase 2
  /// The final Phase 2's suggestions. The tree is settled, so they can only
  /// restate known constraints, but a witnessed negative cover keeps them.
  RecordPairs last_suggestions;

  /// Adds the switches and phase times to a caller's stats struct (HyFdStats,
  /// IncrementalBatchStats, HyUccStats — the fields share these names).
  template <typename Stats>
  void AddTo(Stats* stats) const {
    stats->phase_switches += phase_switches;
    stats->sampling_seconds += sampling_seconds;
    stats->validation_seconds += validation_seconds;
  }
};

/// The hybrid loop of paper Figure 2 — the one copy behind HyFd::Discover,
/// IncrementalHyFd's seeding discovery and CRUD repair, and HyUcc::Discover.
///
/// `phase1` folds fresh agree sets into the candidate tree — sampled around
/// the pairs it is given, matched from exactly those pairs, or none at all.
/// `phase2` validates candidates until the lattice is exhausted (`done`) or
/// validation turns inefficient, and returns the violating pairs it saw.
/// The loop runs `phase1(first_input)`, then `phase2()`; while Phase 2 is
/// not done it hands Phase 2's suggestions to Phase 1 and validates again.
/// The callers own their phases' contents (which sampler, which validator,
/// guardian and memory accounting); the loop owns the alternation, the
/// suggestion hand-off, the phase timers and the switch count. Audit builds
/// check `tree`'s invariants after every phase.
HybridLoopOutcome RunHybridLoop(
    FDTree* tree, const std::function<void(RecordPairs)>& phase1,
    const std::function<ValidatorResult()>& phase2,
    RecordPairs first_input = {});

}  // namespace hyfd

#endif  // HYFD_CORE_HYBRID_LOOP_H_
