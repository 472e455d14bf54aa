#include "baselines/tane.h"

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
  AttributeSet cplus;  ///< TANE's RHS⁺ candidate set C⁺(X)
  size_t error = 0;    ///< e(X) — FD check: X\A → A valid iff e(X\A) = e(X)
};

using Level = std::unordered_map<AttributeSet, Candidate>;

size_t LevelMemoryBytes(const Level& level) {
  size_t bytes = 0;
  for (const auto& [lhs, candidate] : level) {
    bytes += lhs.MemoryBytes() + candidate.cplus.MemoryBytes() +
             candidate.pli->MemoryBytes() + sizeof(Candidate);
  }
  return bytes;
}

}  // namespace

FDSet DiscoverFdsTane(const Relation& relation, const AlgoOptions& options) {
  Deadline deadline = Deadline::After(options.deadline_seconds);
  RunReport* report = InitRunReport(options, "tane", relation);
  Timer total_timer;
  Timer phase_timer;
  const int m = relation.num_columns();
  const size_t n = relation.num_rows();

  FDSet result;
  // Emitted FDs, used for exact minimality checks on the key-pruning path.
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

  // Level 0: the empty set. e(∅) = n - 1 (one big cluster).
  Level prev;
  Candidate root;
  {
    std::vector<std::vector<RecordId>> all(1);
    for (size_t r = 0; r < n; ++r) all[0].push_back(static_cast<RecordId>(r));
    root.pli = std::make_shared<const Pli>(Pli(std::move(all), n));
  }
  root.cplus = AttributeSet::Full(m);
  root.error = root.pli->Error();
  prev.emplace(AttributeSet(m), std::move(root));

  // Level 1: single attributes.
  Level current;
  std::vector<Pli> plis;
  if (cache == nullptr) plis = BuildAllColumnPlis(relation, options.null_semantics);
  for (int a = 0; a < m; ++a) {
    Candidate c;
    c.pli = cache != nullptr
                ? cache->SingleShared(a)
                : std::make_shared<const Pli>(std::move(plis[static_cast<size_t>(a)]));
    c.error = c.pli->Error();
    c.cplus = AttributeSet::Full(m);
    current.emplace(AttributeSet(m).With(a), std::move(c));
  }

  if (report != nullptr) {
    report->AddPhase("build_plis", phase_timer.ElapsedSeconds());
    phase_timer.Restart();
  }
  const PliCacheDelta cache_delta(cache);

  int level_number = 1;
  while (!current.empty()) {
    deadline.Check();
    if (options.memory_tracker != nullptr) {
      options.memory_tracker->SetComponent(
          MemoryTracker::kCandidates,
          LevelMemoryBytes(current) + LevelMemoryBytes(prev));
    }

    // --- compute_dependencies -------------------------------------------
    for (auto& [lhs, candidate] : current) {
      AttributeSet check = lhs & candidate.cplus;
      ForEachBit(check, [&](int a) {
        AttributeSet x = lhs.Without(a);
        auto it = prev.find(x);
        if (it == prev.end()) return;  // generalization was pruned
        if (it->second.error == candidate.error) {
          // X\{A} -> A is valid; minimal by the C⁺ invariant, re-checked
          // exactly against everything emitted so far.
          if (!emitted.ContainsFdOrGeneralization(x, a)) {
            emitted.AddFd(x, a);
            result.Add(x, a);
          }
          candidate.cplus.Reset(a);
          AttributeSet outside = lhs.Complement();
          candidate.cplus.AndNot(outside);
        }
      });
    }

    // --- prune -----------------------------------------------------------
    // Key pruning first (using a snapshot of C⁺ values), then erase.
    std::vector<AttributeSet> to_erase;
    for (auto& [lhs, candidate] : current) {
      if (candidate.cplus.Empty()) {
        to_erase.push_back(lhs);
        continue;
      }
      bool is_key = candidate.pli->IsUnique();
      if (is_key) {
        AttributeSet rhs_candidates = candidate.cplus;
        rhs_candidates.AndNot(lhs);
        ForEachBit(rhs_candidates, [&](int a) {
          // X is a key, so X -> A is valid; emit iff minimal. All smaller
          // minimal FDs were emitted in earlier levels, so the tree lookup
          // is an exact minimality test (replaces TANE's sibling C⁺ walk).
          if (!emitted.ContainsFdOrGeneralization(lhs, a)) {
            emitted.AddFd(lhs, a);
            result.Add(lhs, a);
          }
        });
        to_erase.push_back(lhs);
      }
    }
    for (const AttributeSet& lhs : to_erase) current.erase(lhs);

    // --- generate next level (prefix-block apriori join) ------------------
    Level next;
    std::vector<AttributeSet> keys;
    keys.reserve(current.size());
    for (const auto& [lhs, _] : current) keys.push_back(lhs);
    // Prefix blocks: group by the LHS minus its highest attribute.
    std::unordered_map<AttributeSet, std::vector<AttributeSet>> blocks;
    for (const AttributeSet& lhs : keys) {
      std::vector<int> attrs = lhs.ToIndexes();
      AttributeSet prefix = lhs.Without(attrs.back());
      blocks[prefix].push_back(lhs);
    }
    for (auto& [prefix, members] : blocks) {
      deadline.Check();
      for (size_t i = 0; i < members.size(); ++i) {
        for (size_t j = i + 1; j < members.size(); ++j) {
          AttributeSet joined = members[i] | members[j];
          // All immediate subsets must have survived this level.
          bool all_present = true;
          for (int a = joined.First();
               a != AttributeSet::kNpos && all_present;
               a = joined.NextAfter(a)) {
            if (!current.contains(joined.Without(a))) all_present = false;
          }
          if (!all_present) continue;
          Candidate c;
          const Candidate& left = current.at(members[i]);
          const Candidate& right = current.at(members[j]);
          // The cache derives π_joined from the largest cached subset (left
          // is passed as a floor so eviction never forces a from-singles
          // rebuild); without a cache, intersect the parents directly.
          c.pli = cache != nullptr
                      ? cache->GetWithBase(joined, members[i], left.pli)
                      : std::make_shared<const Pli>(
                            left.pli->Intersect(*right.pli));
          c.error = c.pli->Error();
          // C⁺(Y) = ∩_{A ∈ Y} C⁺(Y \ {A}).
          c.cplus = AttributeSet::Full(m);
          ForEachBit(joined, [&](int a) {
            c.cplus &= current.at(joined.Without(a)).cplus;
          });
          if (!c.cplus.Empty()) next.emplace(std::move(joined), std::move(c));
        }
      }
    }

    prev = std::move(current);
    current = std::move(next);
    ++level_number;
  }

  result.Canonicalize();
  if (report != nullptr) {
    report->AddPhase("lattice_traversal", phase_timer.ElapsedSeconds());
    report->SetCounter("tane.levels", static_cast<uint64_t>(level_number - 1));
    cache_delta.Record(report);
  }
  FinishRunReport(report, result.size(), total_timer.ElapsedSeconds(),
                  options.memory_tracker);
  return result;
}

}  // namespace hyfd
