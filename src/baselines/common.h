#ifndef HYFD_BASELINES_COMMON_H_
#define HYFD_BASELINES_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "data/relation.h"
#include "pli/pli_builder.h"
#include "pli/pli_cache.h"
#include "util/memory_tracker.h"
#include "util/run_report.h"

namespace hyfd {

/// Thrown by any discovery algorithm whose cooperative deadline expired —
/// the benchmark harness renders it as the paper's "TL" marker.
class TimeoutError : public std::runtime_error {
 public:
  TimeoutError() : std::runtime_error("discovery exceeded its time limit") {}
};

/// Cooperative deadline checked in the algorithms' outer loops.
class Deadline {
 public:
  Deadline() = default;
  static Deadline After(double seconds) {
    Deadline d;
    if (seconds > 0) {
      d.armed_ = true;
      d.at_ = std::chrono::steady_clock::now() +
              std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(seconds));
    }
    return d;
  }

  bool Expired() const {
    return armed_ && std::chrono::steady_clock::now() > at_;
  }
  void Check() const {
    if (Expired()) throw TimeoutError();
  }

 private:
  bool armed_ = false;
  std::chrono::steady_clock::time_point at_;
};

/// Options common to every discovery algorithm in this library.
struct AlgoOptions {
  NullSemantics null_semantics = NullSemantics::kNullEqualsNull;
  /// Soft time limit; 0 disables. Expiry raises TimeoutError.
  double deadline_seconds = 0;
  /// Seed for randomized strategies (DFD's random walk).
  uint64_t seed = 1;
  /// If set, the run charges its dominant data structures here.
  MemoryTracker* memory_tracker = nullptr;
  /// Shared PLI cache reused across algorithm runs on the *same* relation
  /// (must match it in attribute count, record count, and null semantics;
  /// mismatches throw std::invalid_argument). nullptr = each lattice
  /// algorithm builds a private cache sized by `pli_cache_budget_bytes`.
  PliCache* pli_cache = nullptr;
  /// Byte budget for a privately built cache; 0 = unbounded.
  size_t pli_cache_budget_bytes = PliCache::kDefaultBudgetBytes;
  /// Ablation switch: false disables PLI caching. TANE/FUN/FD_Mine fall back
  /// to their direct per-level intersections; DFD derives every partition
  /// from the single-column PLIs without a store.
  bool use_pli_cache = true;
  /// If set, the algorithm fills a structured run report here (schema in
  /// util/run_report.h): phase spans, counters, completeness. Every registry
  /// algorithm supports this; nullptr costs nothing.
  RunReport* run_report = nullptr;
};

/// Verifies a shared cache actually describes `relation` under `options`'s
/// null semantics; throws std::invalid_argument otherwise. Returns the cache.
inline PliCache* CheckSharedPliCache(PliCache* cache, const Relation& relation,
                                     const AlgoOptions& options) {
  if (cache == nullptr) return nullptr;
  if (cache->num_attributes() != relation.num_columns() ||
      cache->num_records() != relation.num_rows() ||
      cache->null_semantics() != options.null_semantics ||
      !cache->has_singles()) {
    throw std::invalid_argument(
        "shared PliCache does not match the relation / null semantics");
  }
  return cache;
}

/// Stamps the run report attached to `options` (if any) with the run's
/// identity and returns it — nullptr means "no observability requested" and
/// every later report call must be null-guarded (ScopedPhase already is).
inline RunReport* InitRunReport(const AlgoOptions& options,
                                const char* algorithm,
                                const Relation& relation) {
  RunReport* report = options.run_report;
  if (report == nullptr) return nullptr;
  RunReport fresh;
  fresh.algorithm = algorithm;
  fresh.rows = relation.num_rows();
  fresh.columns = relation.num_columns();
  PublishRunReport(&fresh, report);  // keeps the harness-owned label
  return report;
}

}  // namespace hyfd

#endif  // HYFD_BASELINES_COMMON_H_
