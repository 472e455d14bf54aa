#include "core/sampler.h"

#include <algorithm>
#include <unordered_map>

#include "util/check.h"

namespace hyfd {
namespace {

/// Window runs with fewer pairs than this stay serial: below it the pool's
/// submit/latch round-trip costs more than the comparisons themselves.
constexpr size_t kMinParallelPairs = 2048;

/// Pairs claimed per atomic fetch in a parallel window run.
constexpr size_t kPairGrain = 512;

}  // namespace

Sampler::Sampler(const PreprocessedData* data, double efficiency_threshold,
                 SamplingStrategy strategy, ThreadPool* pool,
                 MetricsRegistry* metrics)
    : data_(data),
      strategy_(strategy),
      threshold_(efficiency_threshold),
      pool_(pool),
      metrics_(metrics) {
  if (metrics_ != nullptr) {
    sort_timer_ = metrics_->GetTimer("sampler.sort_ns");
    scan_timer_ = metrics_->GetTimer("sampler.scan_ns");
    merge_timer_ = metrics_->GetTimer("sampler.merge_ns");
  }
}

void Sampler::MatchPair(RecordId a, RecordId b,
                        std::vector<SampledNonFd>* new_non_fds) {
  ++total_comparisons_;
  data_->records.MatchInto(a, b, &scratch_);
  if (non_fds_.insert(scratch_).second) new_non_fds->push_back({scratch_, a, b});
}

void Sampler::SortClustersOfAttribute(int attr) {
  const int m = data_->num_attributes;
  // Sort each cluster of π_attr by the cluster ids of the neighbors in the
  // cluster-count ranking: the left neighbor has more (smaller) clusters —
  // a promising key — the right one breaks ties (paper Figure 3.1). Using
  // different neighbors per attribute gives each record a different
  // neighborhood in every sorting. Ties fall back to the record id, so the
  // sorting (and everything downstream) is deterministic.
  int p = data_->rank[static_cast<size_t>(attr)];
  int left = data_->by_rank[static_cast<size_t>((p + m - 1) % m)];
  int right = data_->by_rank[static_cast<size_t>((p + 1) % m)];
  auto clusters = data_->plis[static_cast<size_t>(attr)].clusters();
  for (auto& cluster : clusters) {
    std::sort(cluster.begin(), cluster.end(), [&](RecordId a, RecordId b) {
      ClusterId la = data_->records.Cluster(a, left);
      ClusterId lb = data_->records.Cluster(b, left);
      if (la != lb) return la < lb;
      ClusterId ra = data_->records.Cluster(a, right);
      ClusterId rb = data_->records.Cluster(b, right);
      if (ra != rb) return ra < rb;
      return a < b;
    });
  }
  sorted_clusters_[static_cast<size_t>(attr)] = std::move(clusters);
}

void Sampler::InitializeClusterSortings() {
  const int m = data_->num_attributes;
  ScopedMetricTimer timer(sort_timer_);
  sorted_clusters_.resize(static_cast<size_t>(m));
  efficiencies_.clear();
  if (pool_ != nullptr && m > 1) {
    // Attributes sort independently; cluster-count skew between them is why
    // this claims attributes dynamically instead of pre-chunking.
    pool_->ParallelForDynamic(static_cast<size_t>(m), 1, [this](size_t attr) {
      SortClustersOfAttribute(static_cast<int>(attr));
    });
  } else {
    for (int attr = 0; attr < m; ++attr) SortClustersOfAttribute(attr);
  }
}

void Sampler::RunWindow(Efficiency* eff, std::vector<SampledNonFd>* new_non_fds) {
  const auto& clusters = sorted_clusters_[static_cast<size_t>(eff->attribute)];
  const size_t w = eff->window;
  if (metrics_ != nullptr) metrics_->GetCounter("sampler.windows")->Add(1);

  // Pair space of this window run: cluster c contributes size-w+1 sliding
  // pairs when it is large enough. first_pair[] is the prefix sum over the
  // eligible clusters (plus a total sentinel), so workers can map a global
  // pair index back to (cluster, offset) — this balances a single huge
  // cluster across all workers, where partitioning by cluster could not.
  std::vector<uint32_t> eligible;
  std::vector<size_t> first_pair;
  size_t total_pairs = 0;
  for (size_t c = 0; c < clusters.size(); ++c) {
    if (clusters[c].size() < w) continue;
    eligible.push_back(static_cast<uint32_t>(c));
    first_pair.push_back(total_pairs);
    total_pairs += clusters[c].size() - w + 1;
  }
  if (total_pairs == 0) {
    eff->exhausted = true;  // window outgrew all clusters
    return;
  }

  if (pool_ == nullptr || total_pairs < kMinParallelPairs) {
    ScopedMetricTimer scan(scan_timer_);
    const size_t new_before = new_non_fds->size();
    for (uint32_t c : eligible) {
      const auto& cluster = clusters[c];
      for (size_t i = 0; i + w - 1 < cluster.size(); ++i) {
        MatchPair(cluster[i], cluster[i + w - 1], new_non_fds);
      }
    }
    eff->comps += total_pairs;
    eff->results += new_non_fds->size() - new_before;
    return;
  }

  first_pair.push_back(total_pairs);

  // Parallel path: nobody writes the cover until ParallelForRanges returns,
  // so workers probe it without a lock. An agree set missing from it is
  // fresh; each worker dedups its fresh sets into its own map, keeping the
  // smallest global pair index that produced each one.
  struct Witness {
    size_t pair;
    RecordId a;
    RecordId b;
  };
  struct WorkerState {
    std::unordered_map<AttributeSet, Witness> fresh;
    AttributeSet scratch;
  };
  std::vector<WorkerState> workers(pool_->num_threads());
  {
    ScopedMetricTimer scan(scan_timer_);
    pool_->ParallelForRanges(
        total_pairs, kPairGrain, [&](size_t begin, size_t end) {
          const int wid = ThreadPool::CurrentWorkerIndex();
          HYFD_DCHECK(wid >= 0, "Sampler window task off the pool");
          WorkerState& state = workers[static_cast<size_t>(wid)];
          size_t k = static_cast<size_t>(
                         std::upper_bound(first_pair.begin(), first_pair.end(),
                                          begin) -
                         first_pair.begin()) -
                     1;
          size_t p = begin;
          while (p < end) {
            const auto& cluster = clusters[eligible[k]];
            const size_t stop = std::min(end, first_pair[k + 1]);
            size_t i = p - first_pair[k];
            for (; p < stop; ++p, ++i) {
              const RecordId a = cluster[i];
              const RecordId b = cluster[i + w - 1];
              data_->records.MatchInto(a, b, &state.scratch);
              if (non_fds_.find(state.scratch) != non_fds_.end()) continue;
              auto [it, inserted] =
                  state.fresh.try_emplace(state.scratch, Witness{p, a, b});
              if (!inserted && p < it->second.pair) it->second = {p, a, b};
            }
            ++k;
          }
        });
  }

  // Serial merge in pair order: inserting the fresh sets by ascending
  // witness index reproduces the serial path's insert sequence, so the first
  // insert of each agree set carries its smallest pair (the canonical
  // witness), `results` counts successful inserts exactly as serially, and
  // the cover ends up with the same contents. The agree sets are moved out
  // of the worker maps; the batch is canonically re-sorted in Run().
  ScopedMetricTimer merge(merge_timer_);
  std::vector<std::pair<Witness, AttributeSet>> found;
  for (WorkerState& state : workers) {
    while (!state.fresh.empty()) {
      auto node = state.fresh.extract(state.fresh.begin());
      found.emplace_back(node.mapped(), std::move(node.key()));
    }
  }
  std::sort(found.begin(), found.end(), [](const auto& x, const auto& y) {
    return x.first.pair < y.first.pair;
  });
  const size_t cover_before = non_fds_.size();
  size_t results = 0;
  for (auto& [witness, agree] : found) {
    if (!non_fds_.insert(agree).second) continue;  // a later pair's duplicate
    new_non_fds->push_back({std::move(agree), witness.a, witness.b});
    ++results;
  }
  HYFD_DCHECK(non_fds_.size() == cover_before + results,
              "Sampler merge: cover growth differs from the result count");
  total_comparisons_ += total_pairs;
  eff->comps += total_pairs;
  eff->results += results;
}

void Sampler::RunProgressive(std::vector<SampledNonFd>* new_non_fds) {
  while (true) {
    Efficiency* best = nullptr;
    for (auto& eff : efficiencies_) {
      if (eff.exhausted) continue;
      if (best == nullptr || eff.Eval() > best->Eval()) best = &eff;
    }
    if (best == nullptr || best->Eval() < threshold_) break;
    ++best->window;
    RunWindow(best, new_non_fds);
  }
}

void Sampler::RunRandom(std::vector<SampledNonFd>* new_non_fds) {
  const size_t n = data_->num_records;
  if (n < 2) return;
  constexpr size_t kBatch = 1000;
  std::uniform_int_distribution<RecordId> pick(0, static_cast<RecordId>(n - 1));
  while (true) {
    size_t new_before = new_non_fds->size();
    size_t comps_before = total_comparisons_;
    for (size_t i = 0; i < kBatch; ++i) {
      RecordId a = pick(rng_);
      RecordId b = pick(rng_);
      if (a == b) continue;
      MatchPair(a, b, new_non_fds);
    }
    // Efficiency over the comparisons actually performed: a == b draws are
    // skipped above, and on small relations they are a sizable share of the
    // batch — dividing by kBatch would deflate the ratio and terminate
    // sampling early exactly where samples are cheapest.
    size_t performed = total_comparisons_ - comps_before;
    if (performed == 0) break;
    double efficiency =
        static_cast<double>(new_non_fds->size() - new_before) /
        static_cast<double>(performed);
    if (efficiency < threshold_) break;
  }
}

std::vector<AttributeSet> Sampler::Run(const RecordPairs& suggestions) {
  std::vector<SampledNonFd> found = RunWithWitnesses(suggestions);
  std::vector<AttributeSet> new_non_fds;
  new_non_fds.reserve(found.size());
  for (SampledNonFd& f : found) new_non_fds.push_back(std::move(f.agree));
  return new_non_fds;
}

std::vector<SampledNonFd> Sampler::RunWithWitnesses(
    const RecordPairs& suggestions) {
  std::vector<SampledNonFd> new_non_fds;
  if (!initialized_) {
    initialized_ = true;
    if (strategy_ == SamplingStrategy::kClusterWindowing) {
      InitializeClusterSortings();
      // Initial efficiency measurement: window 2 over every attribute.
      const int m = data_->num_attributes;
      efficiencies_.resize(static_cast<size_t>(m));
      for (int attr = 0; attr < m; ++attr) {
        auto& eff = efficiencies_[static_cast<size_t>(attr)];
        eff.attribute = attr;
        eff.window = 2;
        RunWindow(&eff, &new_non_fds);
      }
    }
  } else {
    // Re-entry from the validation phase: relax the efficiency bar
    // (Algorithm 2 line 17) and replay the suggested violating pairs.
    threshold_ /= 2.0;
  }
  if (metrics_ != nullptr) {
    metrics_->GetCounter("sampler.phases")->Add(1);
    metrics_->GetCounter("sampler.suggestions_replayed")->Add(suggestions.size());
  }
  for (const auto& [a, b] : suggestions) MatchPair(a, b, &new_non_fds);

  if (strategy_ == SamplingStrategy::kClusterWindowing) {
    RunProgressive(&new_non_fds);
  } else {
    RunRandom(&new_non_fds);
  }
  // Canonical batch order (CanonicalAgreeSetOrder). Agree sets in a batch
  // are distinct, so the order is total. The witnesses riding along are
  // canonical too: each is the first pair in comparison order that
  // produced its set (see SampledNonFd).
  std::sort(new_non_fds.begin(), new_non_fds.end(),
            [](const SampledNonFd& a, const SampledNonFd& b) {
              return CanonicalAgreeSetOrder(a.agree, b.agree);
            });
  return new_non_fds;
}

size_t Sampler::NegativeCoverBytes() const {
  size_t bytes = 0;
  for (const AttributeSet& s : non_fds_) {
    bytes += sizeof(AttributeSet) + s.MemoryBytes();
  }
  // Rough accounting of the hash-set buckets.
  bytes += non_fds_.bucket_count() * sizeof(void*);
  return bytes;
}

}  // namespace hyfd
