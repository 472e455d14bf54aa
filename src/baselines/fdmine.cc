#include "baselines/fdmine.h"

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

struct Candidate {
  std::shared_ptr<const Pli> pli;
  AttributeSet closure;  ///< attributes known to be determined by the LHS
};

using Level = std::unordered_map<AttributeSet, Candidate>;

}  // namespace

FDSet DiscoverFdsFdMine(const Relation& relation, const AlgoOptions& options) {
  Deadline deadline = Deadline::After(options.deadline_seconds);
  RunReport* report = InitRunReport(options, "fd_mine", relation);
  Timer total_timer;
  Timer phase_timer;
  const int m = relation.num_columns();
  const size_t n = relation.num_rows();

  FDSet result;
  FDTree emitted(m);

  // Shared or private PLI cache; nullptr (use_pli_cache = false) keeps the
  // original direct pairwise intersections.
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

  // Single-column probing tables for the X -> A refinement checks.
  std::vector<std::vector<ClusterId>> probing;
  std::vector<Pli> plis;
  if (cache == nullptr) {
    probing.resize(static_cast<size_t>(m));
    plis = BuildAllColumnPlis(relation, options.null_semantics);
    for (int a = 0; a < m; ++a) {
      probing[static_cast<size_t>(a)] =
          plis[static_cast<size_t>(a)].BuildProbingTable();
    }
  }
  auto probing_for = [&](int a) -> const std::vector<ClusterId>& {
    return cache != nullptr ? cache->ProbingTable(a)
                            : probing[static_cast<size_t>(a)];
  };
  auto single_for = [&](int a) -> const Pli& {
    return cache != nullptr ? cache->Single(a)
                            : plis[static_cast<size_t>(a)];
  };

  // ∅ -> A for constant columns.
  AttributeSet constants(m);
  for (int a = 0; a < m; ++a) {
    if (single_for(a).IsConstant()) {
      constants.Set(a);
      emitted.AddFd(AttributeSet(m), a);
      result.Add(AttributeSet(m), a);
    }
  }

  // Level 1 candidates: non-constant single attributes; their closure
  // starts with the constants (determined by anything).
  Level current;
  for (int a = 0; a < m; ++a) {
    if (constants.Test(a)) continue;
    Candidate c;
    c.pli = cache != nullptr
                ? cache->SingleShared(a)
                : std::make_shared<const Pli>(std::move(plis[static_cast<size_t>(a)]));
    c.closure = constants.With(a);
    current.emplace(AttributeSet(m).With(a), std::move(c));
  }

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
      for (const auto& [lhs, c] : current) {
        bytes += lhs.MemoryBytes() + c.pli->MemoryBytes() +
                 c.closure.MemoryBytes() + sizeof(Candidate);
      }
      options.memory_tracker->SetComponent(MemoryTracker::kCandidates, bytes);
    }

    // Check X -> A for every A outside the already-known closure.
    std::vector<AttributeSet> keys_found;
    for (auto& [lhs, candidate] : current) {
      deadline.Check();
      AttributeSet rhs_candidates = candidate.closure.Complement();
      bool is_key = candidate.pli->IsUnique() && n >= 2;
      ForEachBit(rhs_candidates, [&](int a) {
        bool valid = is_key || candidate.pli->Refines(probing_for(a));
        if (!valid) return;
        candidate.closure.Set(a);
        if (!emitted.ContainsFdOrGeneralization(lhs, a)) {
          emitted.AddFd(lhs, a);
          result.Add(lhs, a);
        }
      });
      // A key determines everything; no superset can yield new minimal FDs.
      if (is_key) keys_found.push_back(lhs);
    }
    for (const AttributeSet& key : keys_found) current.erase(key);

    // Next level: apriori join; a candidate Z is redundant if some A ∈ Z is
    // already in the closure of Z \ {A} (then Z contains a derivable
    // attribute and cannot be a minimal LHS).
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
          bool viable = true;
          AttributeSet inherited(m);
          for (int a = joined.First(); a != AttributeSet::kNpos && viable;
               a = joined.NextAfter(a)) {
            auto it = current.find(joined.Without(a));
            if (it == current.end()) {
              viable = false;  // subset pruned
            } else if (it->second.closure.Test(a)) {
              viable = false;  // Z \ {A} -> A already: Z is redundant
            } else {
              inherited |= it->second.closure;
            }
          }
          if (!viable) continue;
          Candidate c;
          const Candidate& left = current.at(members[i]);
          c.pli = cache != nullptr
                      ? cache->GetWithBase(joined, members[i], left.pli)
                      : std::make_shared<const Pli>(left.pli->Intersect(
                            *current.at(members[j]).pli));
          c.closure = inherited | joined;
          next.emplace(std::move(joined), std::move(c));
        }
      }
    }
    current = std::move(next);
  }

  result.Canonicalize();
  if (report != nullptr) {
    report->AddPhase("lattice_traversal", phase_timer.ElapsedSeconds());
    report->SetCounter("fd_mine.levels", static_cast<uint64_t>(levels));
    cache_delta.Record(report);
  }
  FinishRunReport(report, result.size(), total_timer.ElapsedSeconds(),
                  options.memory_tracker);
  return result;
}

}  // namespace hyfd
