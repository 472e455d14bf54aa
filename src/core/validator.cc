#include "core/validator.h"

#include <algorithm>
#include <limits>
#include <memory>

#include "util/check.h"

namespace hyfd {
namespace {

/// Below this many scanned records a unit is never split: the merge overhead
/// would exceed the scan itself.
constexpr size_t kMinSplitMass = 4096;
/// Target tasks per worker; >1 so dynamic chunking can rebalance when one
/// range turns out heavier than its mass estimate.
constexpr size_t kTasksPerWorker = 4;

/// One refinement call: a (node, restriction-mode) pair of a level, bound to
/// the kernel job that will execute it. Empty-LHS candidates never become
/// units — the IsConstant check resolves them during planning.
struct Unit {
  size_t entry = 0;  ///< index into the level
  std::vector<int> rhs_attrs;
  std::vector<int> others;
  /// Keep-alive for a cache hit; job.clusters then points into this Pli.
  std::shared_ptr<const Pli> cached;
  RefineJob job;
  /// Records the job scans (Σ cluster sizes) — the split cost estimate.
  size_t mass = 0;
  size_t first_task = 0;
  size_t num_tasks = 0;
};

/// One schedulable slice of a unit (whole job, a cluster range, or a record
/// range of one oversized compare-to-first cluster).
struct Task {
  uint32_t unit;
  uint32_t cluster_begin;
  uint32_t cluster_end;
  uint32_t rec_begin;
  uint32_t rec_end;  ///< 0 = whole clusters
};

size_t NumVisit(const RefineJob& job) {
  return job.visit != nullptr ? job.visit->size() : job.clusters->size();
}

const std::vector<RecordId>& ClusterAt(const RefineJob& job, size_t ci) {
  return (*job.clusters)[job.visit != nullptr ? (*job.visit)[ci] : ci];
}

}  // namespace

Validator::Validator(const PreprocessedData* data, FDTree* tree,
                     double efficiency_threshold, ThreadPool* pool,
                     PliCache* cache, MetricsRegistry* metrics)
    : data_(data),
      tree_(tree),
      threshold_(efficiency_threshold),
      pool_(pool),
      cache_(cache),
      metrics_(metrics) {
  HYFD_CHECK(data != nullptr && tree != nullptr,
             "Validator: preprocessed data and FD tree are required");
  HYFD_CHECK(tree->num_attributes() == data->num_attributes,
             "Validator: FD tree and data disagree on the attribute count");
}

void Validator::set_delta(const ClusterDelta* delta) {
  if (delta != nullptr) {
    HYFD_CHECK(delta->touched.size() ==
                   static_cast<size_t>(data_->num_attributes),
               "Validator: delta touched-cluster lists do not cover every "
               "attribute");
    for (size_t attr = 0; attr < delta->touched.size(); ++attr) {
      for (uint32_t ci : delta->touched[attr]) {
        HYFD_CHECK(ci < data_->plis[attr].clusters().size(),
                   "Validator: delta references a nonexistent cluster");
      }
    }
  }
  delta_ = delta;
}

void Validator::EnsureArenas() {
  const size_t slots = (pool_ != nullptr ? pool_->num_threads() : 0) + 1;
  if (arenas_.size() < slots) arenas_.resize(slots);
}

RefineArena& Validator::LocalArena() {
  const int w = ThreadPool::CurrentWorkerIndex();
  // Non-workers (the thread driving Run()) take the extra last slot; a
  // worker index from a *foreign* pool larger than ours clamps there too.
  const size_t slot = w == ThreadPool::kNotAWorker
                          ? arenas_.size() - 1
                          : std::min(static_cast<size_t>(w), arenas_.size() - 1);
  return arenas_[slot];
}

void Validator::ValidateLevel(const std::vector<FDTree::LevelEntry>& level,
                              std::vector<RefineOutcome>* outcomes) {
  // --- Plan: one unit per (node, restriction mode). -----------------------
  std::vector<Unit> units;
  units.reserve(level.size());

  auto plan_unit = [&](size_t i, const AttributeSet& rhss, bool restricted) {
    HYFD_DCHECK(!restricted || delta_ != nullptr,
                "Validator: restricted refinement without a cluster delta");
    if (rhss.Empty()) return;
    const auto& entry = level[i];
    if (entry.lhs.Empty()) {
      // ∅ → A holds iff column A is constant (O(1) either way, so the
      // restricted mode just rechecks in full).
      ForEachBit(rhss, [&](int rhs) {
        if (data_->plis[static_cast<size_t>(rhs)].IsConstant()) {
          (*outcomes)[i].valid_rhss.Set(rhs);
        }
      });
      return;
    }

    Unit u;
    u.entry = i;
    u.rhs_attrs = rhss.ToIndexes();

    const bool multi_lhs = entry.lhs.Count() >= 2;
    // A cached LHS partition (from an earlier discovery pass or a sibling
    // algorithm sharing the cache) replaces the grouping pass entirely.
    // Never in restricted mode: cached partitions describe the *whole*
    // relation, which is correct but defeats the touched-only savings — and
    // the restricted scan must never *create* cache entries either, so the
    // cache is bypassed symmetrically.
    if (cache_ != nullptr && multi_lhs && !restricted) {
      if (auto cached = cache_->Probe(entry.lhs)) {
        u.cached = std::move(cached);
        u.job.clusters = &u.cached->clusters();
        u.mass = u.cached->NumNonUniqueRecords();
        units.push_back(std::move(u));
        return;
      }
    }

    // Pivot: the LHS attribute whose PLI has the most (smallest) clusters —
    // minimizes the records we group (the paper's "first" attribute after
    // the Preprocessor's sort).
    int pivot = -1;
    for (int attr = entry.lhs.First(); attr != AttributeSet::kNpos;
         attr = entry.lhs.NextAfter(attr)) {
      if (pivot == -1 || data_->rank[static_cast<size_t>(attr)] <
                             data_->rank[static_cast<size_t>(pivot)]) {
        pivot = attr;
      }
    }
    size_t code_bound = 1;
    for (int attr = entry.lhs.First(); attr != AttributeSet::kNpos;
         attr = entry.lhs.NextAfter(attr)) {
      if (attr == pivot) continue;
      u.others.push_back(attr);
      code_bound = std::max(
          code_bound,
          data_->plis[static_cast<size_t>(attr)].NumStrippedClusters());
    }
    u.job.other_code_bound = code_bound;

    const Pli& pivot_pli = data_->plis[static_cast<size_t>(pivot)];
    u.job.clusters = &pivot_pli.clusters();
    if (restricted) {
      // Restricted mode scans only the pivot clusters the batch touched; any
      // newly-violating pair shares its pivot cluster with a new row, so no
      // violation hides in an untouched cluster (see ClusterDelta).
      u.job.visit = &delta_->touched[static_cast<size_t>(pivot)];
      for (uint32_t ci : *u.job.visit) {
        u.mass += pivot_pli.clusters()[ci].size();
      }
    } else {
      u.mass = pivot_pli.NumNonUniqueRecords();
    }
    // With a cache attached, the grouping pass doubles as a builder for
    // π_lhs: every group that gains a second record becomes one of its
    // stripped clusters. Abandoned on early exit (partial partitions are
    // never cached).
    u.job.collect = cache_ != nullptr && multi_lhs && !restricted;
    units.push_back(std::move(u));
  };

  for (size_t i = 0; i < level.size(); ++i) {
    const auto& entry = level[i];
    if (entry.node->fds.Empty()) continue;
    if (delta_ == nullptr) {
      plan_unit(i, entry.node->fds, /*restricted=*/false);
      continue;
    }
    // Incremental mode: candidates proven on the pre-batch data only need
    // the restricted touched-clusters scan; candidates the Inductor added
    // this batch get the full check. confirmed ⊆ fds, so the two RHS sets
    // partition the node's candidates.
    const AttributeSet& inherited = entry.node->confirmed;
    AttributeSet fresh = entry.node->fds;
    fresh.AndNot(inherited);
    plan_unit(i, inherited, /*restricted=*/true);
    plan_unit(i, fresh, /*restricted=*/false);
  }

  // The unit vector is final: bind the job pointers that alias unit-owned
  // storage (vector moves preserve heap buffers, but binding after the last
  // push_back keeps the invariant obvious).
  for (Unit& u : units) {
    u.job.records = &data_->records;
    u.job.others = u.others.data();
    u.job.num_others = u.others.size();
    u.job.rhs_attrs = u.rhs_attrs.data();
    u.job.num_rhs = u.rhs_attrs.size();
  }

  // --- Split: two-level parallelism. --------------------------------------
  // Level 1 is the task list itself (dynamic chunking across units); level 2
  // splits oversized units into pivot-cluster ranges — and, for the
  // compare-to-first shape whose records are independent, record ranges of a
  // single giant cluster — so one skewed node can no longer serialize the
  // level. Grouping shapes never split below cluster granularity: an LHS
  // group never spans pivot clusters, so cluster ranges are the finest sound
  // partition for them.
  std::vector<Task> tasks;
  size_t grain = std::numeric_limits<size_t>::max();
  if (pool_ != nullptr && pool_->num_threads() > 1) {
    size_t total_mass = 0;
    for (const Unit& u : units) total_mass += u.mass;
    grain = std::max(kMinSplitMass,
                     total_mass / (pool_->num_threads() * kTasksPerWorker) + 1);
  }
  for (size_t ui = 0; ui < units.size(); ++ui) {
    Unit& u = units[ui];
    u.first_task = tasks.size();
    const size_t num_visit = NumVisit(u.job);
    if (num_visit == 0) {
      u.num_tasks = 0;
      continue;
    }
    const auto unit_id = static_cast<uint32_t>(ui);
    if (u.mass <= grain) {
      tasks.push_back({unit_id, 0, static_cast<uint32_t>(num_visit), 0, 0});
    } else {
      const bool record_splittable = u.others.empty();
      size_t acc = 0;
      size_t begin = 0;
      for (size_t ci = 0; ci < num_visit; ++ci) {
        const size_t cluster_size = ClusterAt(u.job, ci).size();
        if (record_splittable && cluster_size > 2 * grain) {
          if (ci > begin) {
            tasks.push_back({unit_id, static_cast<uint32_t>(begin),
                             static_cast<uint32_t>(ci), 0, 0});
          }
          for (size_t r = 0; r < cluster_size; r += grain) {
            tasks.push_back({unit_id, static_cast<uint32_t>(ci),
                             static_cast<uint32_t>(ci + 1),
                             static_cast<uint32_t>(r),
                             static_cast<uint32_t>(
                                 std::min(cluster_size, r + grain))});
          }
          begin = ci + 1;
          acc = 0;
          continue;
        }
        acc += cluster_size;
        if (acc >= grain) {
          tasks.push_back({unit_id, static_cast<uint32_t>(begin),
                           static_cast<uint32_t>(ci + 1), 0, 0});
          begin = ci + 1;
          acc = 0;
        }
      }
      if (begin < num_visit) {
        tasks.push_back({unit_id, static_cast<uint32_t>(begin),
                         static_cast<uint32_t>(num_visit), 0, 0});
      }
    }
    u.num_tasks = tasks.size() - u.first_task;
  }

  // --- Execute. -----------------------------------------------------------
  std::vector<RefineTaskOut> outs(tasks.size());
  auto run_task = [&](size_t t) {
    const Task& task = tasks[t];
    RunRefineTask(units[task.unit].job, task.cluster_begin, task.cluster_end,
                  task.rec_begin, task.rec_end, &LocalArena(), &outs[t]);
  };
  if (pool_ != nullptr && tasks.size() > 1) {
    // Dynamic chunking: tasks still vary in cost (mass is an estimate, early
    // exits truncate scans), so workers claim them one at a time.
    pool_->ParallelForDynamic(tasks.size(), 1, run_task);
  } else {
    for (size_t t = 0; t < tasks.size(); ++t) run_task(t);
  }

  // --- Merge (deterministic for any thread count and split). --------------
  // Per RHS the minimum witness position survives, which is exactly the
  // record where the sequential interleaved scan would have killed it — so
  // valid_rhss AND the suggestion pairs are bit-identical no matter how the
  // unit was split.
  for (Unit& u : units) {
    RefineTaskOut merged;
    if (u.num_tasks == 0) {
      merged.witnesses.assign(u.job.num_rhs, RefineWitness{});
    } else {
      merged = std::move(outs[u.first_task]);
      for (size_t k = 1; k < u.num_tasks; ++k) {
        MergeTaskOut(&merged, std::move(outs[u.first_task + k]));
      }
    }
    RefineOutcome& outcome = (*outcomes)[u.entry];
    bool any_alive = false;
    for (size_t j = 0; j < merged.witnesses.size(); ++j) {
      const RefineWitness& w = merged.witnesses[j];
      if (w.pos == kNoWitnessPos) {
        outcome.valid_rhss.Set(u.rhs_attrs[j]);
        any_alive = true;
      } else {
        outcome.suggestions.emplace_back(w.a, w.b);
      }
    }
    // A task stops early only when every RHS is dead within its range, which
    // implies every RHS is dead globally — so `any_alive` already implies
    // all tasks completed and the collected partition is whole. The explicit
    // `complete` check keeps the invariant load-bearing rather than implied.
    if (u.job.collect && any_alive && merged.complete) {
      cache_->Put(level[u.entry].lhs,
                  Pli(std::move(merged.collected), data_->num_records));
    }
  }
}

ValidatorResult Validator::Run() {
  ValidatorResult result;
  const int m = data_->num_attributes;
  EnsureArenas();

  // Raw (pre-dedup) suggestion emissions this Run, for the dedup counters:
  // the buffer itself is deduplicated every level, so its final size no
  // longer reflects how much was emitted.
  size_t raw_emitted = 0;

  // One record pair often violates several candidates of one level (several
  // RHSs of a node, several nodes sharing the violating pair). Replaying a
  // pair twice in the Sampler can never discover a new agree set, but it
  // does bump total_comparisons() — which drifted the comparison statistics
  // (and sampling efficiency) upward on every phase switch. Canonical
  // sort + unique keeps the suggestion list deterministic for any thread
  // count and replay-minimal. Every level merge below dedups, so the list
  // is final whenever Run() returns.
  auto finalize_suggestions = [this, &result, &raw_emitted] {
    const auto& suggestions = result.comparison_suggestions;
    if (metrics_ != nullptr) {
      metrics_->GetCounter("validator.suggestions")->Add(suggestions.size());
      metrics_->GetCounter("validator.suggestions_deduped")
          ->Add(raw_emitted - suggestions.size());
      size_t arena_bytes = 0;
      for (const RefineArena& arena : arenas_) {
        arena_bytes += arena.MemoryBytes();
      }
      metrics_->GetGauge("validator.arena_bytes")->SetMax(arena_bytes);
    }
  };

  while (true) {
    std::vector<FDTree::LevelEntry> level = tree_->GetLevel(current_level_number_);
    if (level.empty()) {
      result.done = true;
      finalize_suggestions();
      return result;
    }

    // --- Validate all candidates on this level (possibly in parallel). ----
    std::vector<RefineOutcome> outcomes(level.size());
    for (auto& outcome : outcomes) outcome.valid_rhss = AttributeSet(m);
    ValidateLevel(level, &outcomes);

    // --- Merge: update nodes, collect invalid FDs and suggestions. --------
    size_t num_valid = 0;
    size_t num_invalid = 0;
    std::vector<FDTree::LhsGroup> invalid;  // LHS with its invalid RHSs
    for (size_t i = 0; i < level.size(); ++i) {
      auto& entry = level[i];
      if (entry.node->fds.Empty()) continue;
      total_validations_ += static_cast<size_t>(entry.node->fds.Count());
      AttributeSet invalid_rhss = entry.node->fds;
      invalid_rhss.AndNot(outcomes[i].valid_rhss);
      num_valid += static_cast<size_t>(outcomes[i].valid_rhss.Count());
      if (delta_ != nullptr) {
        // Counters must read `confirmed` before the node is overwritten.
        restricted_validations_ +=
            static_cast<size_t>(entry.node->confirmed.Count());
        AttributeSet broken = entry.node->confirmed;
        broken.AndNot(outcomes[i].valid_rhss);
        delta_invalidated_ += static_cast<size_t>(broken.Count());
      }
      entry.node->fds = outcomes[i].valid_rhss;
      // Everything that survived this pass is now proven on the full current
      // data (restricted survivors by the ClusterDelta soundness argument),
      // so the node is fully confirmed either way.
      entry.node->confirmed = entry.node->fds;
      if (!invalid_rhss.Empty()) {
        num_invalid += static_cast<size_t>(invalid_rhss.Count());
        invalid.push_back({entry.lhs, std::move(invalid_rhss)});
      }
      raw_emitted += outcomes[i].suggestions.size();
      for (auto& suggestion : outcomes[i].suggestions) {
        result.comparison_suggestions.push_back(suggestion);
      }
    }

    // Bound the suggestion buffer: dedup at every level merge instead of
    // once per phase, so the peak footprint is (deduped so far + one level's
    // emissions) rather than a whole phase's raw emissions. The peak gauge
    // samples the buffer at its per-level maximum, before the dedup.
    if (metrics_ != nullptr) {
      metrics_->GetGauge("validator.suggestions_peak")
          ->SetMax(result.comparison_suggestions.size());
    }
    {
      auto& suggestions = result.comparison_suggestions;
      std::sort(suggestions.begin(), suggestions.end());
      suggestions.erase(std::unique(suggestions.begin(), suggestions.end()),
                        suggestions.end());
    }

    // --- Specialize the invalid FDs (Algorithm 4, lines 21-33). -----------
    // One LHS at a time: both minimality checks of an extension attribute
    // are shared by all of the LHS's invalid RHSs.
    for (const auto& [lhs, rhss] : invalid) {
      for (int attr = 0; attr < m; ++attr) {
        if (lhs.Test(attr)) continue;
        AttributeSet targets = rhss;
        targets.Reset(attr);  // trivial FDs are never candidates
        if (targets.Empty()) continue;
        // Minimality 1: if lhs → attr is (already validated as) valid, the
        // closure of lhs ∪ {attr} equals the closure of lhs, so the
        // specialization would be invalid too.
        if (tree_->ContainsFdOrGeneralization(lhs, attr)) continue;
        AttributeSet new_lhs = lhs.With(attr);
        // Minimality 2: skip RHSs with a generalization (or the FD itself).
        // lhs → rhs was just removed and the tree is a per-RHS antichain,
        // so only generalizations containing `attr` can exist.
        targets.AndNot(tree_->FindGeneralizedRhssWith(new_lhs, targets, attr));
        ForEachBit(targets, [&](int rhs) { tree_->AddFd(new_lhs, rhs); });
      }
    }

    ++current_level_number_;
    if (metrics_ != nullptr) {
      metrics_->GetCounter("validator.levels")->Add(1);
      metrics_->GetCounter("validator.candidates")->Add(level.size());
      metrics_->GetCounter("validator.invalid_fds")->Add(num_invalid);
    }

    // --- Phase-switch test (Algorithm 4, line 36). -------------------------
    if (static_cast<double>(num_invalid) >
        threshold_ * static_cast<double>(num_valid)) {
      finalize_suggestions();
      return result;  // validation inefficient: back to sampling
    }
  }
}

}  // namespace hyfd
