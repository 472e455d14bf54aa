#include "core/hyfd.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "core/guardian.h"
#include "core/hybrid_loop.h"
#include "core/inductor.h"
#include "core/preprocessor.h"
#include "core/validator.h"
#include "fd/fd_tree.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace hyfd {

void HyFd::ResetPliCache() {
  owned_cache_.reset();
  owned_cache_fingerprint_ = 0;
}

FDSet HyFd::Discover(const Relation& relation) {
  stats_ = HyFdStats{};
  report_ = RunReport{};
  MemoryTracker* tracker = config_.memory_tracker;
  HYFD_AUDIT_ONLY(relation.CheckInvariants());

  Timer total_timer;
  MetricsRegistry metrics;

  Timer timer;
  PreprocessedData data = Preprocess(relation, config_.null_semantics);
  stats_.preprocess_seconds = timer.ElapsedSeconds();
  if (tracker != nullptr) {
    tracker->SetComponent(MemoryTracker::kPlis, data.MemoryBytes());
  }

  // --- PLI cache selection (external shared, owned-and-warm, or none). ----
  const bool needs_thread_safety = config_.num_threads > 1;
  PliCache* cache = config_.pli_cache;
  if (cache != nullptr) {
    // An incompatible external cache must not be used (wrong partitions or
    // data races), but ignoring it silently hides a broken sharing setup —
    // record exactly which compatibility check failed.
    std::string reason;
    if (cache->num_attributes() != data.num_attributes) {
      reason = "attribute count mismatch (cache " +
               std::to_string(cache->num_attributes()) + ", relation " +
               std::to_string(data.num_attributes) + ")";
    } else if (cache->num_records() != data.num_records) {
      reason = "record count mismatch (cache " +
               std::to_string(cache->num_records()) + ", relation " +
               std::to_string(data.num_records) + ")";
    } else if (cache->null_semantics() != config_.null_semantics) {
      reason = "null-semantics mismatch";
    } else if (needs_thread_safety && !cache->config().thread_safe) {
      reason = "cache not thread-safe but num_threads = " +
               std::to_string(config_.num_threads);
    }
    if (!reason.empty()) {
      stats_.external_cache_rejected = true;
      stats_.external_cache_rejection_reason = std::move(reason);
      cache = nullptr;  // the owned-cache fallback below still needs
                        // enable_pli_cache's explicit authorization
    }
  }
  if (cache == nullptr && config_.enable_pli_cache) {
    // Same relation + same null semantics → same PLIs → same fingerprint, so
    // the owned PLI cache can be kept warm across Discover() calls and is
    // safely dropped when the data changed. The fingerprint covers the
    // storage layer too (dictionaries, types, format version), not just the
    // cluster structure: a reload whose clusters coincide but whose values
    // differ must still invalidate. One O(n·m) pass — noise next to a single
    // validation level.
    uint64_t fingerprint = DataFingerprint(relation, data.records);
    if (owned_cache_ == nullptr ||
        owned_cache_fingerprint_ != fingerprint ||
        owned_cache_->num_attributes() != data.num_attributes ||
        (needs_thread_safety && !owned_cache_->config().thread_safe)) {
      PliCache::Config cache_config;
      cache_config.budget_bytes = config_.pli_cache_budget_bytes;
      cache_config.thread_safe = needs_thread_safety;
      owned_cache_ = std::make_unique<PliCache>(
          data.num_attributes, data.num_records, cache_config,
          config_.null_semantics);
      owned_cache_fingerprint_ = fingerprint;
    }
    cache = owned_cache_.get();
  }
  const PliCacheDelta cache_delta(cache);

  // One pool serves both phases (paper §10.4): the Sampler's cluster-pair
  // comparisons and the Validator's refinement checks. Each ParallelFor*
  // waits on its own latch, so sharing is safe.
  std::unique_ptr<ThreadPool> pool;
  if (config_.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(static_cast<size_t>(config_.num_threads));
  }

  FDTree tree(data.num_attributes);
  Sampler sampler(&data, config_.efficiency_threshold, config_.sampling_strategy,
                  pool.get(), &metrics);
  Inductor inductor(&tree, &metrics);
  MemoryGuardian guardian(config_.memory_limit_bytes);
  Validator validator(&data, &tree, config_.efficiency_threshold, pool.get(),
                      cache, &metrics);

  // Both phases end with the memory accounting: the guardian may prune the
  // tree, and the tracker records the phase's footprint.
  auto account = [&] {
    guardian.Check(&tree, sampler.NegativeCoverBytes() + data.MemoryBytes());
    if (tracker != nullptr) {
      tracker->SetComponent(MemoryTracker::kNegativeCover,
                            sampler.NegativeCoverBytes());
      tracker->SetComponent(MemoryTracker::kFdTree, tree.MemoryBytes());
    }
  };
  // Phase 1 = Sampler + Inductor, Phase 2 = Validator (paper Figure 2).
  const HybridLoopOutcome loop = RunHybridLoop(
      &tree,
      [&](RecordPairs suggestions) {
        // The ablation without sampling starts from ∅ -> R and leaves the
        // lattice to the Validator alone.
        inductor.Update(config_.enable_sampling ? sampler.Run(suggestions)
                                                : std::vector<AttributeSet>{});
        account();
      },
      [&] {
        ValidatorResult result = validator.Run();
        account();
        return result;
      });
  loop.AddTo(&stats_);

  HYFD_AUDIT_ONLY(if (cache != nullptr) cache->CheckInvariants());
  const PliCache::Counters cache_used = cache_delta.Record(&report_);
  stats_.pli_cache_hits = cache_used.hits;
  stats_.pli_cache_misses = cache_used.misses;
  stats_.pli_cache_evictions = cache_used.evictions;
  stats_.comparisons = sampler.total_comparisons();
  stats_.non_fds = sampler.num_non_fds();
  stats_.validations = validator.total_validations();
  stats_.levels_validated = validator.levels_validated();
  // Guardian outcome: a pruned tree means FDs were dropped — the result is
  // a strict subset of the full answer and MUST be flagged as incomplete
  // (the silent-truncation bug this field family fixes).
  stats_.complete = !guardian.WasPruned();
  stats_.pruned_lhs_cap = guardian.WasPruned() ? tree.max_lhs_size() : -1;
  stats_.guardian_prunes = guardian.times_pruned();
  stats_.guardian_give_ups = guardian.give_ups();
  stats_.guardian_overrun_bytes = guardian.overrun_bytes();
  stats_.guardian_reason = guardian.reason();

  FDSet result = tree.ToFdSet();
  stats_.num_fds = result.size();

  // --- Structured run report (the observability layer's output). ----------
  report_.algorithm = "hyfd";
  report_.rows = data.num_records;
  report_.columns = data.num_attributes;
  report_.result_kind = "fds";
  report_.AddPhase("preprocess", stats_.preprocess_seconds);
  report_.AddPhase("sampling", stats_.sampling_seconds);
  report_.AddPhase("validation", stats_.validation_seconds);
  if (!stats_.complete) {
    report_.MarkIncomplete(
        "memory guardian pruned FDs with LHS size > " +
        std::to_string(stats_.pruned_lhs_cap) + " (limit " +
        std::to_string(config_.memory_limit_bytes) + " bytes) [" +
        GuardianReasonCode(stats_.guardian_reason) + "]");
  }
  // Always emitted (0 == kNone): a consumer can branch on the code without
  // first checking whether the guardian acted at all.
  report_.SetCounter("guardian.reason_code",
                     static_cast<uint64_t>(stats_.guardian_reason));
  report_.pruned_lhs_cap = stats_.pruned_lhs_cap;
  report_.guardian_prunes = stats_.guardian_prunes;
  report_.guardian_give_ups = stats_.guardian_give_ups;
  report_.guardian_overrun_bytes = stats_.guardian_overrun_bytes;
  report_.external_cache_rejected = stats_.external_cache_rejected;
  report_.external_cache_rejection_reason = stats_.external_cache_rejection_reason;
  report_.MergeMetrics(metrics);
  report_.SetCounter("hyfd.phase_switches",
                     static_cast<uint64_t>(stats_.phase_switches));
  report_.SetCounter("hyfd.comparisons", stats_.comparisons);
  report_.SetCounter("hyfd.non_fds", stats_.non_fds);
  report_.SetCounter("hyfd.validations", stats_.validations);
  report_.SetCounter("hyfd.levels_validated",
                     static_cast<uint64_t>(stats_.levels_validated));
  FinishRunReport(&report_, result.size(), total_timer.ElapsedSeconds(),
                  tracker);
  PublishRunReport(&report_, config_.run_report);
  return result;
}

FDSet DiscoverFds(const Relation& relation, HyFdConfig config) {
  HyFd algo(config);
  return algo.Discover(relation);
}

}  // namespace hyfd
