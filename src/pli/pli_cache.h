#ifndef HYFD_PLI_PLI_CACHE_H_
#define HYFD_PLI_PLI_CACHE_H_

#include <atomic>
#include <cstddef>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "data/relation.h"
#include "pli/pli.h"
#include "pli/pli_builder.h"
#include "util/attribute_set.h"
#include "util/memory_tracker.h"
#include "util/run_report.h"
#include "util/sync.h"

namespace hyfd {

class PliCache;

/// Tuning knobs for a PliCache (namespace-scope so it is a complete type in
/// the cache's own default arguments; spelled `PliCache::Config` by users).
struct PliCacheConfig {
  /// LRU eviction threshold in bytes; 0 disables eviction (unbounded).
  /// The default (64 MiB) is generous for the bench datasets, small enough
  /// to matter on the paper's large configurations.
  size_t budget_bytes = size_t{64} << 20;
  /// false = pass-through mode: Get() still derives correct partitions but
  /// nothing is stored (the cache-off ablation arm for DFD).
  bool enabled = true;
  /// Guards every operation with a shared mutex (required when HyFD's
  /// parallel Validator probes the cache). false selects
  /// LockPolicy::kElided: the lock *type* still brackets every operation —
  /// so the static analysis checks both configurations identically — but
  /// the lock/unlock calls are skipped at runtime.
  bool thread_safe = false;
  /// If set, the cache charges its total footprint (pinned singles +
  /// cached partitions) under MemoryTracker::kPlis.
  MemoryTracker* memory_tracker = nullptr;
};

/// A shared, memory-budgeted cache of intersected PLIs, keyed by
/// `AttributeSet`.
///
/// PLI intersection dominates the lattice-traversal cost of every level-wise
/// discoverer in this library (TANE, FUN, FD_Mine, DFD) and of repeated
/// discovery passes over the same relation (the EAIFD setting). One cache can
/// be built per relation and handed to any number of algorithm runs through
/// `AlgoOptions::pli_cache` / `HyFdConfig::pli_cache`, so π_X computed by one
/// run is a hit for the next.
///
/// * **Eviction** is LRU under a byte budget (`Config::budget_bytes`;
///   0 = unbounded). Single-column PLIs and their probing tables are pinned —
///   they are inputs, not derived state — and do not count against the
///   budget. The entry inserted last is never evicted, so a tiny budget
///   degenerates to a one-entry cache rather than a dead one.
/// * **Derivation**: `Get()` serves misses by intersecting from the largest
///   cached subset partition (checking immediate subsets first, then a
///   bounded LRU scan), falling back to single-column intersection — the
///   generalization of DFD's partition-store trick. Intermediate partitions
///   produced on the way are cached too.
/// * **Safety of eviction**: values are `shared_ptr<const Pli>`, so a caller
///   holding a partition keeps it alive even after the cache dropped it.
/// * **Thread safety** is optional (`Config::thread_safe`): a shared mutex
///   lets HyFD's parallel Validator probe concurrently (shared lock) while
///   derivations and inserts take the exclusive lock. Single-threaded
///   configurations elide the lock inside the `SharedMutex` itself
///   (LockPolicy::kElided) instead of branching per call site, so every code
///   path is statically bracketed by the capability and Clang's thread-safety
///   analysis (DESIGN.md §11) verifies both configurations.
/// * **Counters** (hits/misses/evictions/derivations/inserts plus current
///   bytes/entries) feed bench_micro and the cache-ablation column of
///   bench_ablation.
class PliCache {
 public:
  /// Default byte budget: generous for the bench datasets, small enough to
  /// matter on the paper's large configurations.
  static constexpr size_t kDefaultBudgetBytes = size_t{64} << 20;

  using Config = PliCacheConfig;

  /// Cumulative since construction / ResetCounters(); bytes/entries are the
  /// current derived-entry footprint (pinned singles excluded).
  struct Counters {
    size_t hits = 0;
    size_t misses = 0;
    size_t evictions = 0;
    size_t derivations = 0;  ///< PLI intersections performed on miss paths
    size_t inserts = 0;
    size_t stale_drops = 0;  ///< entries dropped by Rebind() re-binding
    size_t bytes = 0;
    size_t entries = 0;
  };

  /// Builds a cache over pre-built single-column PLIs (pinned; probing
  /// tables are materialized eagerly). `nulls` records the semantics the
  /// singles were built under so shared users can verify compatibility.
  PliCache(std::vector<Pli> single_plis, size_t num_records, Config config = {},
           NullSemantics nulls = NullSemantics::kNullEqualsNull);

  /// Builds a cache without pinned singles. Only Probe()/Put() and
  /// subset-derivable Get() calls work; Get() returns nullptr when it would
  /// need a single-column base. This is the shape HyFD uses to keep
  /// Validator-built LHS partitions warm across repeated Discover() passes.
  PliCache(int num_attributes, size_t num_records, Config config = {},
           NullSemantics nulls = NullSemantics::kNullEqualsNull);

  /// Convenience: builds all single-column PLIs of `relation` and wraps them.
  static PliCache FromRelation(const Relation& relation, Config config = {},
                               NullSemantics nulls = NullSemantics::kNullEqualsNull);

  // Neither copyable nor movable (mutex + atomics — a move would tear the
  // lock away from concurrent probers); FromRelation relies on copy elision.
  // All four operations are deleted explicitly so the contract is
  // compiler-enforced, not comment-enforced (pli_cache_test static_asserts
  // it stays that way).
  PliCache(const PliCache&) = delete;
  PliCache& operator=(const PliCache&) = delete;
  PliCache(PliCache&&) = delete;
  PliCache& operator=(PliCache&&) = delete;

  int num_attributes() const { return num_attributes_; }
  size_t num_records() const HYFD_EXCLUDES(mu_) {
    ReaderLock lock(mu_);  // Rebind() may update the count
    return num_records_;
  }
  NullSemantics null_semantics() const { return nulls_; }
  /// The construction-time configuration. Immutable for the cache's
  /// lifetime; the *live* byte budget moves with set_budget_bytes() and is
  /// not reflected here.
  const Config& config() const { return config_; }
  bool has_singles() const { return !singles_.empty(); }

  /// Pinned single-column PLI / probing table. Requires has_singles().
  const Pli& Single(int attr) const { return *singles_[static_cast<size_t>(attr)]; }
  std::shared_ptr<const Pli> SingleShared(int attr) const {
    return singles_[static_cast<size_t>(attr)];
  }
  const std::vector<ClusterId>& ProbingTable(int attr) const {
    return probing_[static_cast<size_t>(attr)];
  }

  /// π_X for an arbitrary attribute set: exact hit, else derived from the
  /// largest cached subset (falling back to singles) and cached. Returns
  /// nullptr only for the empty set or when a singles-less cache cannot
  /// derive the partition.
  std::shared_ptr<const Pli> Get(const AttributeSet& attrs) HYFD_EXCLUDES(mu_);

  /// Like Get(), but the caller supplies a known partition π_{base_key}
  /// (base_key ⊆ attrs) to derive from when it beats every cached subset —
  /// the level-wise algorithms pass the parent candidate they already hold,
  /// so eviction can never force a from-singles rebuild.
  std::shared_ptr<const Pli> GetWithBase(const AttributeSet& attrs,
                                         const AttributeSet& base_key,
                                         const std::shared_ptr<const Pli>& base)
      HYFD_EXCLUDES(mu_);

  /// Exact-hit lookup that never derives and never reorders the LRU list
  /// (shared lock only): the Validator's concurrent probe. Counts a hit or
  /// a miss. Returns nullptr on miss.
  std::shared_ptr<const Pli> Probe(const AttributeSet& attrs) const
      HYFD_EXCLUDES(mu_);

  /// Inserts (or replaces) an externally computed partition, e.g. the LHS
  /// partitions HyFD's Validator assembles as a by-product of refinement.
  void Put(const AttributeSet& attrs, Pli pli) HYFD_EXCLUDES(mu_);
  void Put(const AttributeSet& attrs, std::shared_ptr<const Pli> pli)
      HYFD_EXCLUDES(mu_);

  /// Fingerprint of the dataset the cached partitions were built from
  /// (CompressedRecords::Fingerprint); 0 until the first Rebind().
  uint64_t data_fingerprint() const HYFD_EXCLUDES(mu_) {
    ReaderLock lock(mu_);
    return data_fingerprint_;
  }

  /// Binds the cache to a dataset fingerprint + record count. A no-op when
  /// both already match (the cached partitions stay warm — the cross-batch
  /// reuse path of IncrementalHyFd). On any mismatch every derived entry is
  /// dropped (counted under Counters::stale_drops, not evictions) and the
  /// record count is updated, so a later Put()/Probe() can never serve a
  /// partition computed over the old rows. Caches with pinned singles refuse
  /// to re-bind to different data (the pinned inputs themselves would be
  /// stale): ContractViolation.
  void Rebind(uint64_t data_fingerprint, size_t num_records)
      HYFD_EXCLUDES(mu_);

  /// Re-budgets the cache, evicting immediately if the new budget is lower.
  void set_budget_bytes(size_t budget_bytes) HYFD_EXCLUDES(mu_);

  /// Drops every derived entry (pinned singles stay). Not counted as
  /// evictions.
  void Clear() HYFD_EXCLUDES(mu_);

  Counters counters() const HYFD_EXCLUDES(mu_);
  void ResetCounters();

  /// Pinned singles + probing tables + cached partitions, in bytes.
  size_t TotalBytes() const HYFD_EXCLUDES(mu_);

  /// Deep structural audit: pinned singles/probing tables shaped for
  /// (num_attributes, num_records), LRU list ↔ index map bijection, every
  /// entry's byte charge re-derivable from its key and partition, the total
  /// budget accounting equal to the per-entry sum, the budget respected
  /// (modulo the never-evict-the-newest rule), and a pass-through cache
  /// holding nothing. Throws ContractViolation on the first violation. Runs
  /// after every insert/evict/clear in audit builds (-DHYFD_AUDIT=ON);
  /// callable from any build (takes the shared lock).
  void CheckInvariants() const HYFD_EXCLUDES(mu_);

  /// Test-only: skews the byte accounting so tests can prove the accounting
  /// audit actually fires. Never called by library code.
  void CorruptByteAccountingForTest(size_t delta) HYFD_EXCLUDES(mu_) {
    WriterLock lock(mu_);
    bytes_ += delta;
  }

 private:
  struct Entry {
    AttributeSet key;
    std::shared_ptr<const Pli> pli;
    size_t bytes = 0;
  };
  using LruList = std::list<Entry>;

  // The `*Locked` helpers declare the exclusive (or shared) hold they used
  // to merely assume; a call without the capability is now a compile error
  // under -DHYFD_THREAD_SAFETY=ON rather than a comment violation.
  std::shared_ptr<const Pli> GetLocked(const AttributeSet& attrs,
                                       const AttributeSet* base_key,
                                       const std::shared_ptr<const Pli>* base)
      HYFD_REQUIRES(mu_);
  std::shared_ptr<const Pli> InsertLocked(const AttributeSet& attrs,
                                          std::shared_ptr<const Pli> pli)
      HYFD_REQUIRES(mu_);
  void EvictLocked() HYFD_REQUIRES(mu_);
  /// Read-only over guarded state: callable under either lock mode.
  void ChargeTrackerLocked() const HYFD_REQUIRES_SHARED(mu_);
  void CheckInvariantsLocked() const HYFD_REQUIRES_SHARED(mu_);
  static size_t EntryBytes(const AttributeSet& key, const Pli& pli);

  /// Immutable after construction (set_budget_bytes updates budget_bytes_,
  /// not config_), so the unguarded reads in hyfd.cc's cache-compatibility
  /// checks and in ExclusiveLock-free accessors are race-free.
  Config config_;
  NullSemantics nulls_;
  int num_attributes_ = 0;
  size_t singles_bytes_ = 0;

  std::vector<std::shared_ptr<const Pli>> singles_;
  std::vector<std::vector<ClusterId>> probing_;

  /// The cache's one capability. Config::thread_safe == false folds to
  /// LockPolicy::kElided: statically identical locking, runtime no-ops.
  mutable SharedMutex mu_{config_.thread_safe ? LockPolicy::kEnforced
                                              : LockPolicy::kElided};
  size_t num_records_ HYFD_GUARDED_BY(mu_) = 0;
  uint64_t data_fingerprint_ HYFD_GUARDED_BY(mu_) = 0;
  size_t budget_bytes_ HYFD_GUARDED_BY(mu_) = 0;  ///< live value of the budget
  LruList lru_ HYFD_GUARDED_BY(mu_);  ///< front = most recently used
  std::unordered_map<AttributeSet, LruList::iterator> index_
      HYFD_GUARDED_BY(mu_);
  size_t bytes_ HYFD_GUARDED_BY(mu_) = 0;

  mutable std::atomic<size_t> hits_{0};
  mutable std::atomic<size_t> misses_{0};
  std::atomic<size_t> evictions_{0};
  std::atomic<size_t> derivations_{0};
  std::atomic<size_t> inserts_{0};
  std::atomic<size_t> stale_drops_{0};
};

/// One run's share of a cache's cumulative counters (the cache may be shared
/// across runs or kept warm across calls): snapshots them on construction;
/// Record() writes the hits, misses and evictions since then into `report`
/// (if non-null) and returns those deltas plus the stale drops. Null-safe:
/// without a cache nothing is written and every delta reads zero.
class PliCacheDelta {
 public:
  explicit PliCacheDelta(const PliCache* cache) : cache_(cache) {
    if (cache_ != nullptr) before_ = cache_->counters();
  }

  PliCache::Counters Record(RunReport* report) const {
    PliCache::Counters delta;
    if (cache_ == nullptr) return delta;
    const PliCache::Counters now = cache_->counters();
    delta.hits = now.hits - before_.hits;
    delta.misses = now.misses - before_.misses;
    delta.evictions = now.evictions - before_.evictions;
    delta.stale_drops = now.stale_drops - before_.stale_drops;
    if (report != nullptr) {
      report->pli_cache_hits = delta.hits;
      report->pli_cache_misses = delta.misses;
      report->pli_cache_evictions = delta.evictions;
    }
    return delta;
  }

 private:
  const PliCache* cache_;
  PliCache::Counters before_;
};

}  // namespace hyfd

#endif  // HYFD_PLI_PLI_CACHE_H_
