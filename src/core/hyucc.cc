#include "core/hyucc.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "core/hybrid_loop.h"
#include "core/preprocessor.h"
#include "core/refine_kernel.h"
#include "fd/fd_tree.h"
#include "pli/pli.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/timer.h"

namespace hyfd {
namespace {

/// Candidate UCCs live in an FDTree with the fixed pseudo-RHS 0: a stored
/// "LHS -> 0" means "LHS is a candidate minimal UCC". All of the tree's
/// generalization machinery carries over unchanged.
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

/// Specializes the candidate tree with one non-unique set (an agree set):
/// every candidate contained in it is not unique; extend minimally. One
/// tree walk finds the candidates.
void SpecializeUcc(FDTree* tree, const AttributeSet& agree) {
  AttributeSet marker(tree->num_attributes());
  marker.Set(kUccMarker);
  // Attributes inside the agree set keep the pair agreeing.
  const AttributeSet outside = agree.Complement();
  for (const FDTree::LhsGroup& group :
       tree->GetGeneralizationGroups(agree, marker)) {
    tree->RemoveFd(group.lhs, kUccMarker);
    ExtendCandidate(tree, group.lhs, outside);
  }
}

/// Checks whether `lhs` is unique on the data; on violation returns one
/// offending record pair through `violation`. Grouping runs on the shared
/// refinement kernel (dense-code refinement, no hash maps); `arena` is the
/// discovery run's reusable scratch.
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

}  // namespace

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

  FDTree tree(m);
  tree.AddFd(AttributeSet(m), kUccMarker);  // start from "∅ is unique"
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
          SpecializeUcc(&tree, agree);
        }
      },
      // Phase 2: validate level-wise until done or inefficient.
      [&] {
        ValidatorResult result;
        while (true) {
          auto level = tree.GetLevel(current_level);
          if (level.empty()) {
            result.done = true;
            return result;
          }
          size_t num_valid = 0;
          std::vector<AttributeSet> invalid;
          for (auto& entry : level) {
            if (!entry.node->fds.Test(kUccMarker)) continue;
            ++stats_.validations;
            std::pair<RecordId, RecordId> violation;
            if (IsUnique(data, entry.lhs, &arena, &violation)) {
              ++num_valid;
              continue;
            }
            entry.node->fds.Reset(kUccMarker);
            invalid.push_back(entry.lhs);
            result.comparison_suggestions.push_back(violation);
          }
          for (const AttributeSet& lhs : invalid) {
            ExtendCandidate(&tree, lhs, lhs.Complement());
          }
          ++current_level;
          metrics.GetCounter("validator.levels")->Add(1);
          if (static_cast<double>(invalid.size()) >
              config_.efficiency_threshold * static_cast<double>(num_valid)) {
            return result;  // inefficient: go sample the violating pairs
          }
        }
      });
  loop.AddTo(&stats_);
  stats_.levels_validated = current_level;

  stats_.comparisons = sampler.total_comparisons();
  std::vector<AttributeSet> uccs;
  for (const FD& fd : tree.ToFdSet()) uccs.push_back(fd.lhs);
  std::sort(uccs.begin(), uccs.end(), [](const AttributeSet& a, const AttributeSet& b) {
    int ca = a.Count(), cb = b.Count();
    if (ca != cb) return ca < cb;
    return a < b;
  });
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
