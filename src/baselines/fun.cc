#include "baselines/fun.h"

#include <memory>
#include <unordered_map>
#include <vector>

#include "fd/fd_tree.h"
#include "pli/pli.h"
#include "pli/pli_builder.h"
#include "pli/pli_cache.h"
#include "util/timer.h"

namespace hyfd {
namespace {

struct FreeSet {
  std::shared_ptr<const Pli> pli;
  size_t cardinality = 0;  ///< |X|: distinct value combinations
};

using Level = std::unordered_map<AttributeSet, FreeSet>;

}  // namespace

FDSet DiscoverFdsFun(const Relation& relation, const AlgoOptions& options) {
  Deadline deadline = Deadline::After(options.deadline_seconds);
  RunReport* report = InitRunReport(options, "fun", relation);
  Timer total_timer;
  Timer phase_timer;
  const int m = relation.num_columns();
  const size_t n = relation.num_rows();

  FDSet result;
  FDTree emitted(m);

  // |∅| = 1: one (empty) value combination.
  const size_t empty_cardinality = n == 0 ? 0 : 1;

  // Shared or private PLI cache; nullptr (use_pli_cache = false) keeps the
  // original discard-after-check intersections.
  PliCache* cache = CheckSharedPliCache(options.pli_cache, relation, options);
  std::unique_ptr<PliCache> owned_cache;
  if (cache == nullptr && options.use_pli_cache) {
    PliCache::Config cache_config;
    cache_config.budget_bytes = options.pli_cache_budget_bytes;
    owned_cache = std::make_unique<PliCache>(
        BuildAllColumnPlis(relation, options.null_semantics),
        relation.num_rows(), cache_config, options.null_semantics);
    cache = owned_cache.get();
  }

  std::vector<Pli> plis;
  if (cache == nullptr) plis = BuildAllColumnPlis(relation, options.null_semantics);

  // Level 1: singletons. ∅ -> A iff |{A}| = |∅|.
  Level current;
  for (int a = 0; a < m; ++a) {
    FreeSet fs;
    fs.pli = cache != nullptr
                 ? cache->SingleShared(a)
                 : std::make_shared<const Pli>(std::move(plis[static_cast<size_t>(a)]));
    fs.cardinality = fs.pli->NumClusters();
    if (fs.cardinality <= empty_cardinality) {
      // Constant column: ∅ -> A; {A} is not free, prune it.
      AttributeSet lhs(m);
      emitted.AddFd(lhs, a);
      result.Add(lhs, a);
      continue;
    }
    current.emplace(AttributeSet(m).With(a), std::move(fs));
  }

  // Lazily built single-column probing tables for the |X ∪ A| computations
  // (the cache keeps them pinned; the legacy path rebuilds on demand).
  std::vector<std::vector<ClusterId>> probing(static_cast<size_t>(m));
  auto probing_for = [&](int a) -> const std::vector<ClusterId>& {
    if (cache != nullptr) return cache->ProbingTable(a);
    auto& table = probing[static_cast<size_t>(a)];
    if (table.empty() && n > 0) {
      table = BuildColumnPli(relation, a, options.null_semantics)
                  .BuildProbingTable();
    }
    return table;
  };

  if (report != nullptr) {
    report->AddPhase("build_plis", phase_timer.ElapsedSeconds());
    phase_timer.Restart();
  }
  const PliCacheDelta cache_delta(cache);

  int levels = 0;
  while (!current.empty()) {
    ++levels;
    deadline.Check();
    if (options.memory_tracker != nullptr) {
      size_t bytes = 0;
      for (const auto& [lhs, fs] : current) {
        bytes += lhs.MemoryBytes() + fs.pli->MemoryBytes() + sizeof(FreeSet);
      }
      options.memory_tracker->SetComponent(MemoryTracker::kCandidates, bytes);
    }

    // FD checks: for free set X and attribute A ∉ X, X -> A holds iff the
    // cardinality does not grow when adding A.

    // Non-free supersets (X ∪ A with |X ∪ A| = |X|) are recorded so the
    // next level can drop them.
    std::unordered_map<AttributeSet, bool> freeness;
    for (auto& [lhs, fs] : current) {
      deadline.Check();
      AttributeSet outside = lhs.Complement();
      ForEachBit(outside, [&](int a) {
        // |X ∪ A| = stripped clusters + singletons. With a cache the
        // intersection is kept: the next level's free sets re-request it.
        size_t card =
            cache != nullptr
                ? cache->GetWithBase(lhs.With(a), lhs, fs.pli)->NumClusters()
                : fs.pli->Intersect(probing_for(a)).NumClusters();
        if (card == fs.cardinality) {
          if (!emitted.ContainsFdOrGeneralization(lhs, a)) {
            emitted.AddFd(lhs, a);
            result.Add(lhs, a);
          }
          freeness[lhs.With(a)] = false;  // X ∪ A is not free
        }
      });
    }

    // Generate the next level: joins of current free sets; a candidate is
    // kept only if every immediate subset is a current free set and no FD
    // check marked it non-free.
    Level next;
    std::vector<AttributeSet> keys;
    for (const auto& [lhs, _] : current) keys.push_back(lhs);
    std::unordered_map<AttributeSet, std::vector<AttributeSet>> blocks;
    for (const AttributeSet& lhs : keys) {
      std::vector<int> attrs = lhs.ToIndexes();
      blocks[lhs.Without(attrs.back())].push_back(lhs);
    }
    for (auto& [prefix, members] : blocks) {
      deadline.Check();
      for (size_t i = 0; i < members.size(); ++i) {
        for (size_t j = i + 1; j < members.size(); ++j) {
          AttributeSet joined = members[i] | members[j];
          if (next.contains(joined)) continue;
          auto nf = freeness.find(joined);
          if (nf != freeness.end() && !nf->second) continue;  // non-free
          bool all_free = true;
          for (int a = joined.First(); a != AttributeSet::kNpos && all_free;
               a = joined.NextAfter(a)) {
            if (!current.contains(joined.Without(a))) all_free = false;
          }
          if (!all_free) continue;
          const FreeSet& left = current.at(members[i]);
          const FreeSet& right = current.at(members[j]);
          FreeSet fs;
          fs.pli = cache != nullptr
                       ? cache->GetWithBase(joined, members[i], left.pli)
                       : std::make_shared<const Pli>(
                             left.pli->Intersect(*right.pli));
          fs.cardinality = fs.pli->NumClusters();
          // Freeness: strictly larger cardinality than every subset.
          bool free = true;
          for (int a = joined.First(); a != AttributeSet::kNpos && free;
               a = joined.NextAfter(a)) {
            if (current.at(joined.Without(a)).cardinality >= fs.cardinality) {
              free = false;
            }
          }
          if (free) next.emplace(std::move(joined), std::move(fs));
        }
      }
    }

    current = std::move(next);
  }

  result.Canonicalize();
  if (report != nullptr) {
    report->AddPhase("lattice_traversal", phase_timer.ElapsedSeconds());
    report->SetCounter("fun.levels", static_cast<uint64_t>(levels));
    cache_delta.Record(report);
  }
  FinishRunReport(report, result.size(), total_timer.ElapsedSeconds(),
                  options.memory_tracker);
  return result;
}

}  // namespace hyfd
