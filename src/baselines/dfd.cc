#include "baselines/dfd.h"

#include <algorithm>
#include <memory>
#include <random>
#include <unordered_map>
#include <vector>

#include "pli/pli.h"
#include "pli/pli_builder.h"
#include "pli/pli_cache.h"
#include "util/timer.h"

namespace hyfd {
namespace {

// The DFD paper's partition store is the shared PliCache: partitions are
// derived from the largest cached subset and evicted LRU under the byte
// budget (the old private store evicted by clearing everything).

/// Per-RHS lattice search state.
class RhsSearch {
 public:
  RhsSearch(PliCache* store, int rhs, const AttributeSet& available,
            std::mt19937_64* rng, const Deadline* deadline)
      : store_(store),
        rhs_(rhs),
        available_(available),
        rng_(rng),
        deadline_(deadline) {}

  std::vector<AttributeSet> Run() {
    // Initial seeds: the singletons.
    std::vector<AttributeSet> seeds;
    ForEachBit(available_, [&](int a) {
      seeds.push_back(AttributeSet(available_.size()).With(a));
    });
    while (true) {
      for (const AttributeSet& seed : seeds) {
        if (Covered(seed)) continue;
        Walk(seed);
      }
      seeds = NextSeeds();
      if (seeds.empty()) break;
    }
    return min_deps_;
  }

 private:
  bool IsDep(const AttributeSet& lhs) {
    for (const AttributeSet& dep : min_deps_) {
      if (dep.IsSubsetOf(lhs)) return true;
    }
    for (const AttributeSet& nondep : max_non_deps_) {
      if (lhs.IsSubsetOf(nondep)) return false;
    }
    auto it = cache_.find(lhs);
    if (it != cache_.end()) return it->second;
    deadline_->Check();
    bool dep = lhs.Empty()
                   ? false  // constant RHS handled before the search
                   : store_->Get(lhs)->Refines(store_->ProbingTable(rhs_));
    cache_.emplace(lhs, dep);
    return dep;
  }

  /// True iff the border already classifies `lhs`.
  bool Covered(const AttributeSet& lhs) const {
    for (const AttributeSet& dep : min_deps_) {
      if (dep.IsSubsetOf(lhs)) return true;
    }
    for (const AttributeSet& nondep : max_non_deps_) {
      if (lhs.IsSubsetOf(nondep)) return true;
    }
    return false;
  }

  /// Random walk: descend from dependencies, ascend from non-dependencies,
  /// until one border element (minimal dep or maximal non-dep) is pinned.
  void Walk(AttributeSet node) {
    while (true) {
      deadline_->Check();
      if (IsDep(node)) {
        std::vector<int> attrs = node.ToIndexes();
        std::shuffle(attrs.begin(), attrs.end(), *rng_);
        bool descended = false;
        for (int a : attrs) {
          AttributeSet child = node.Without(a);
          if (child.Empty() ? false : IsDep(child)) {
            node = child;
            descended = true;
            break;
          }
        }
        if (descended) continue;
        AddMinDep(node);
        return;
      }
      std::vector<int> attrs;
      AttributeSet outside = available_;
      outside.AndNot(node);
      ForEachBit(outside, [&](int a) { attrs.push_back(a); });
      std::shuffle(attrs.begin(), attrs.end(), *rng_);
      bool ascended = false;
      for (int a : attrs) {
        AttributeSet parent = node.With(a);
        if (!IsDep(parent)) {
          node = parent;
          ascended = true;
          break;
        }
      }
      if (ascended) continue;
      AddMaxNonDep(node);
      return;
    }
  }

  void AddMinDep(const AttributeSet& dep) { min_deps_.push_back(dep); }
  void AddMaxNonDep(const AttributeSet& nondep) {
    max_non_deps_.push_back(nondep);
  }

  /// Seeds for the next round: minimal transversals of the complements of
  /// all maximal non-dependencies, minus anything already covered. If no
  /// uncovered seed exists the dependency border is complete.
  std::vector<AttributeSet> NextSeeds() {
    const int m = available_.size();
    std::vector<AttributeSet> seeds{AttributeSet(m)};
    for (const AttributeSet& nondep : max_non_deps_) {
      deadline_->Check();
      AttributeSet complement = available_;
      complement.AndNot(nondep);
      std::vector<AttributeSet> grown;
      for (const AttributeSet& seed : seeds) {
        if (seed.Intersects(complement)) {
          grown.push_back(seed);  // already escapes this non-dep
          continue;
        }
        ForEachBit(complement,
                   [&](int a) { grown.push_back(seed.With(a)); });
      }
      // Minimize to keep the cross product small.
      std::sort(grown.begin(), grown.end(),
                [](const AttributeSet& a, const AttributeSet& b) {
                  return a.Count() < b.Count();
                });
      std::vector<AttributeSet> minimal;
      for (const AttributeSet& s : grown) {
        bool covered = false;
        for (const AttributeSet& kept : minimal) {
          if (kept.IsSubsetOf(s)) {
            covered = true;
            break;
          }
        }
        if (!covered) minimal.push_back(s);
      }
      seeds = std::move(minimal);
    }
    std::vector<AttributeSet> uncovered;
    for (const AttributeSet& seed : seeds) {
      if (!seed.Empty() && !Covered(seed)) uncovered.push_back(seed);
    }
    return uncovered;
  }

  PliCache* store_;
  int rhs_;
  AttributeSet available_;
  std::mt19937_64* rng_;
  const Deadline* deadline_;
  std::unordered_map<AttributeSet, bool> cache_;
  std::vector<AttributeSet> min_deps_;
  std::vector<AttributeSet> max_non_deps_;
};

}  // namespace

FDSet DiscoverFdsDfd(const Relation& relation, const AlgoOptions& options) {
  Deadline deadline = Deadline::After(options.deadline_seconds);
  RunReport* report = InitRunReport(options, "dfd", relation);
  Timer total_timer;
  Timer phase_timer;
  const int m = relation.num_columns();

  // The partition store: a shared cache if the caller provides one, else a
  // private budgeted cache over this run's single-column PLIs. The cache's
  // byte accounting doubles as DFD's kPlis charge.
  PliCache* store = CheckSharedPliCache(options.pli_cache, relation, options);
  std::unique_ptr<PliCache> owned_store;
  if (store == nullptr) {
    PliCache::Config cache_config;
    cache_config.budget_bytes = options.pli_cache_budget_bytes;
    cache_config.enabled = options.use_pli_cache;
    cache_config.memory_tracker = options.memory_tracker;
    owned_store = std::make_unique<PliCache>(
        BuildAllColumnPlis(relation, options.null_semantics),
        relation.num_rows(), cache_config, options.null_semantics);
    store = owned_store.get();
  } else if (options.memory_tracker != nullptr) {
    options.memory_tracker->SetComponent(MemoryTracker::kPlis,
                                         store->TotalBytes());
  }

  FDSet result;
  // Constant columns: ∅ -> A; they are also useless inside any LHS.
  AttributeSet constants(m);
  for (int a = 0; a < m; ++a) {
    if (store->Single(a).IsConstant()) {
      constants.Set(a);
      result.Add(AttributeSet(m), a);
    }
  }
  std::mt19937_64 rng(options.seed);

  if (report != nullptr) {
    report->AddPhase("preprocess", phase_timer.ElapsedSeconds());
    phase_timer.Restart();
  }
  const PliCacheDelta cache_delta(store);

  int rhs_searches = 0;
  for (int rhs = 0; rhs < m; ++rhs) {
    if (constants.Test(rhs)) continue;
    ++rhs_searches;
    AttributeSet available = AttributeSet::Full(m);
    available.Reset(rhs);
    available.AndNot(constants);
    RhsSearch search(store, rhs, available, &rng, &deadline);
    for (const AttributeSet& lhs : search.Run()) result.Add(lhs, rhs);
  }
  result.Canonicalize();
  if (report != nullptr) {
    report->AddPhase("random_walk", phase_timer.ElapsedSeconds());
    report->SetCounter("dfd.rhs_searches", static_cast<uint64_t>(rhs_searches));
    cache_delta.Record(report);
  }
  FinishRunReport(report, result.size(), total_timer.ElapsedSeconds(),
                  options.memory_tracker);
  return result;
}

}  // namespace hyfd
