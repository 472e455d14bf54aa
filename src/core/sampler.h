#ifndef HYFD_CORE_SAMPLER_H_
#define HYFD_CORE_SAMPLER_H_

#include <cstdint>
#include <random>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/preprocessor.h"
#include "util/attribute_set.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace hyfd {

/// Pair-selection strategy of the Sampler. The paper's technique is cluster
/// windowing; random pair sampling is kept as an ablation baseline
/// (bench_ablation compares the two).
enum class SamplingStrategy {
  kClusterWindowing,
  kRandomPairs,
};

/// The canonical order of a batch of agree sets: descending bit count (the
/// Inductor specializes longest-first anyway), ties lexicographic.
inline bool CanonicalAgreeSetOrder(const AttributeSet& a,
                                   const AttributeSet& b) {
  const int ca = a.Count();
  const int cb = b.Count();
  if (ca != cb) return ca > cb;
  return a < b;
}

/// A freshly discovered non-FD agree set together with the record pair that
/// witnessed it. The incremental session keys its witnessed negative cover on
/// these: when a witness row dies (DeleteRows/UpdateRows) the agree set can
/// no longer be trusted and is dropped from the cover. The witness is the
/// first pair in comparison order that produced the agree set — within a
/// window run, the smallest global pair index — so witnesses are
/// bit-identical for any thread count, like the agree-set batch itself.
struct SampledNonFd {
  AttributeSet agree;
  RecordId a = 0;
  RecordId b = 0;
};

/// HyFD's Sampler component (paper §6, Algorithm 2).
///
/// Compares carefully chosen record pairs on the compressed records and
/// collects their agree sets as non-FDs. Pairs are drawn per attribute by
/// sliding ever larger windows over that attribute's PLI clusters (sorted by
/// neighboring attributes' cluster ids), governed by a progressive
/// efficiency ranking. Each call to Run() is one sampling phase; the
/// efficiency threshold halves on every re-entry.
///
/// With a ThreadPool attached, Phase 1 runs parallel end-to-end (paper
/// §10.4): cluster sortings are built concurrently per attribute, and each
/// window run partitions its pair space across workers. Nobody writes the
/// negative cover while a window's workers scan, so they probe it without
/// any lock and collect fresh agree sets into per-worker sets; the driver
/// thread then merges those into the cover in pair order. The result is
/// deterministic: the returned non-FD batch (canonically sorted) with its
/// witnesses, total_comparisons(), num_non_fds(), the cover's contents, and
/// every per-window efficiency value are bit-identical for any thread
/// count, including none.
class Sampler {
 public:
  /// A non-null `metrics` registry receives window/phase counters and the
  /// `sampler.sort_ns` / `sampler.scan_ns` / `sampler.merge_ns` timers —
  /// updated per window run, never per pair, so the hot loop stays
  /// metric-free.
  Sampler(const PreprocessedData* data, double efficiency_threshold,
          SamplingStrategy strategy = SamplingStrategy::kClusterWindowing,
          ThreadPool* pool = nullptr, MetricsRegistry* metrics = nullptr);

  /// Runs one sampling phase. `suggestions` are record pairs the Validator
  /// saw violating a candidate (paper: comparisonSuggestions); they are
  /// matched first. Returns the non-FD agree sets newly discovered in this
  /// phase, sorted by descending bit count then lexicographically (the order
  /// the Inductor wants, and a canonical order independent of the thread
  /// count).
  std::vector<AttributeSet> Run(const RecordPairs& suggestions);

  /// Same phase as Run(), but keeps the witnessing record pair of every
  /// newly discovered agree set (IncrementalHyFd's witnessed negative
  /// cover). The agree-set batch and all counters are identical to Run()'s.
  std::vector<SampledNonFd> RunWithWitnesses(const RecordPairs& suggestions);

  size_t total_comparisons() const { return total_comparisons_; }
  size_t num_non_fds() const { return non_fds_.size(); }
  double current_threshold() const { return threshold_; }

  /// Bytes held by the negative cover (Table 3 accounting).
  size_t NegativeCoverBytes() const;

 private:
  struct Efficiency {
    int attribute = 0;
    size_t window = 2;
    size_t comps = 0;
    size_t results = 0;
    bool exhausted = false;  ///< window outgrew every cluster

    double Eval() const {
      if (exhausted) return 0.0;
      if (comps == 0) return 0.0;
      return static_cast<double>(results) / static_cast<double>(comps);
    }
  };

  /// Compares records `a`,`b`; records a new non-FD if the agree set is new.
  void MatchPair(RecordId a, RecordId b, std::vector<SampledNonFd>* new_non_fds);

  /// Slides the current window of `eff` over its attribute's sorted clusters
  /// (Algorithm 2, runWindow), across the pool when one is attached.
  void RunWindow(Efficiency* eff, std::vector<SampledNonFd>* new_non_fds);

  void InitializeClusterSortings();
  void SortClustersOfAttribute(int attr);
  void RunProgressive(std::vector<SampledNonFd>* new_non_fds);
  void RunRandom(std::vector<SampledNonFd>* new_non_fds);

  const PreprocessedData* data_;
  SamplingStrategy strategy_;
  double threshold_;
  ThreadPool* pool_;
  MetricsRegistry* metrics_;
  /// Cluster sorting, window pair scans, and parallel-window merges; null
  /// without a registry (ScopedMetricTimer is null-safe).
  Metric* sort_timer_ = nullptr;
  Metric* scan_timer_ = nullptr;
  Metric* merge_timer_ = nullptr;
  bool initialized_ = false;

  /// The negative cover. Only the driver thread inserts; parallel window
  /// workers read it concurrently but never while an insert can happen.
  std::unordered_set<AttributeSet> non_fds_;
  /// Per attribute: that PLI's clusters with records sorted by the
  /// neighbor-attribute keys (paper Figure 3.1).
  std::vector<std::vector<std::vector<RecordId>>> sorted_clusters_;
  std::vector<Efficiency> efficiencies_;
  size_t total_comparisons_ = 0;
  /// Reusable agree-set buffer for the serial MatchPair path.
  AttributeSet scratch_;
  std::mt19937_64 rng_{0x5eed5eedULL};
};

}  // namespace hyfd

#endif  // HYFD_CORE_SAMPLER_H_
