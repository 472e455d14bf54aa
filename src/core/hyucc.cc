#include "core/hyucc.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "core/hybrid_loop.h"
#include "core/preprocessor.h"
#include "core/refine_kernel.h"
#include "core/ucc_lattice.h"
#include "fd/fd_tree.h"
#include "util/metrics.h"
#include "util/timer.h"

namespace hyfd {

std::vector<AttributeSet> HyUcc::Discover(const Relation& relation) {
  stats_ = HyUccStats{};
  report_ = RunReport{};
  Timer total_timer;
  MetricsRegistry metrics;
  PreprocessedData data = Preprocess(relation, config_.null_semantics);
  const int m = data.num_attributes;

  std::unique_ptr<ThreadPool> pool;
  if (config_.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(static_cast<size_t>(config_.num_threads));
  }

  FDTree tree = NewUccCandidateTree(m);
  Sampler sampler(&data, config_.efficiency_threshold, config_.sampling_strategy,
                  pool.get(), &metrics);

  RefineArena arena;  // one reusable grouping scratch for the whole run
  int current_level = 0;
  const HybridLoopOutcome loop = RunHybridLoop(
      &tree,
      // Phase 1: sample violations, specialize the candidate tree.
      [&](RecordPairs suggestions) {
        // The same violating pair can be suggested by several invalidated
        // candidates of one level; replaying duplicates only inflates the
        // comparison count (the agree set is already in the negative cover).
        std::sort(suggestions.begin(), suggestions.end());
        suggestions.erase(std::unique(suggestions.begin(), suggestions.end()),
                          suggestions.end());
        // Sampler::Run returns the sets longest first (canonical order),
        // which keeps the candidate tree small during specialization.
        for (const AttributeSet& agree : sampler.Run(suggestions)) {
          SpecializeUccCandidates(&tree, agree);
        }
      },
      // Phase 2: validate level-wise until done or inefficient.
      [&] {
        ValidatorResult result;
        const auto is_unique = [&](const AttributeSet& lhs, AttributeSet*) {
          ++stats_.validations;
          std::pair<RecordId, RecordId> violation;
          if (IsUnique(data, lhs, &arena, &violation)) return true;
          result.comparison_suggestions.push_back(violation);
          return false;
        };
        while (true) {
          const UccLevelOutcome level =
              ValidateUccLevel(&tree, current_level, is_unique);
          if (level.exhausted) {
            result.done = true;
            return result;
          }
          ++current_level;
          metrics.GetCounter("validator.levels")->Add(1);
          if (static_cast<double>(level.num_invalid) >
              config_.efficiency_threshold *
                  static_cast<double>(level.num_valid)) {
            return result;  // inefficient: go sample the violating pairs
          }
        }
      });
  loop.AddTo(&stats_);
  stats_.levels_validated = current_level;

  stats_.comparisons = sampler.total_comparisons();
  std::vector<AttributeSet> uccs = UccsOf(tree);
  stats_.num_uccs = uccs.size();

  report_.algorithm = "hyucc";
  report_.rows = data.num_records;
  report_.columns = data.num_attributes;
  report_.result_kind = "uccs";
  report_.AddPhase("sampling", stats_.sampling_seconds);
  report_.AddPhase("validation", stats_.validation_seconds);
  report_.MergeMetrics(metrics);
  report_.SetCounter("hyucc.phase_switches",
                     static_cast<uint64_t>(stats_.phase_switches));
  report_.SetCounter("hyucc.comparisons", stats_.comparisons);
  report_.SetCounter("hyucc.validations", stats_.validations);
  FinishRunReport(&report_, uccs.size(), total_timer.ElapsedSeconds(),
                  nullptr);
  PublishRunReport(&report_, config_.run_report);
  return uccs;
}

}  // namespace hyfd
