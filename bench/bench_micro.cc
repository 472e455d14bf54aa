// Micro-benchmarks (google-benchmark) for the substrates every discovery
// algorithm sits on: PLI construction and intersection, compressed-record
// matching, FDTree operations, and the Validator's direct refinement check.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/hyucc.h"
#include "core/incremental.h"
#include "core/inductor.h"
#include "core/preprocessor.h"
#include "core/sampler.h"
#include "core/refine_kernel.h"
#include "data/csv.h"
#include "data/datasets.h"
#include "data/generators.h"
#include "data/table_io.h"
#include "fd/fd_tree.h"
#include "legacy_validator.h"
#include "pli/pli_builder.h"
#include "pli/pli_cache.h"
#include "util/attribute_set.h"

namespace hyfd {
namespace {

Relation BenchRelation(size_t rows, int cols, uint64_t domain) {
  return GenerateFdReduced(rows, cols, domain, /*seed=*/7);
}

void BM_PliBuild(benchmark::State& state) {
  Relation r = BenchRelation(static_cast<size_t>(state.range(0)), 4, 100);
  for (auto _ : state) {
    Pli pli = BuildColumnPli(r, 0);
    benchmark::DoNotOptimize(pli);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PliBuild)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_PliIntersect(benchmark::State& state) {
  Relation r = BenchRelation(static_cast<size_t>(state.range(0)), 4, 50);
  Pli a = BuildColumnPli(r, 0);
  Pli b = BuildColumnPli(r, 1);
  auto probing = b.BuildProbingTable();
  for (auto _ : state) {
    Pli ab = a.Intersect(probing);
    benchmark::DoNotOptimize(ab);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PliIntersect)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_PliRefines(benchmark::State& state) {
  Relation r = BenchRelation(static_cast<size_t>(state.range(0)), 4, 50);
  Pli a = BuildColumnPli(r, 0);
  auto probing = BuildColumnPli(r, 1).BuildProbingTable();
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Refines(probing));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PliRefines)->Arg(10000)->Arg(100000);

void BM_Match(benchmark::State& state) {
  const int cols = static_cast<int>(state.range(0));
  Relation r = BenchRelation(4096, cols, 16);
  PreprocessedData data = Preprocess(r);
  RecordId i = 0;
  for (auto _ : state) {
    AttributeSet agree = data.records.Match(i, (i + 1) % 4096);
    benchmark::DoNotOptimize(agree);
    i = (i + 1) % 4096;
  }
  state.SetItemsProcessed(state.iterations() * cols);
}
BENCHMARK(BM_Match)->Arg(8)->Arg(32)->Arg(64)->Arg(128);

/// The Sampler's hot loop: word-level agreement into a reused scratch set —
/// no allocation, 64 attributes per accumulated word.
void BM_MatchInto(benchmark::State& state) {
  const int cols = static_cast<int>(state.range(0));
  Relation r = BenchRelation(4096, cols, 16);
  PreprocessedData data = Preprocess(r);
  AttributeSet scratch;
  RecordId i = 0;
  for (auto _ : state) {
    data.records.MatchInto(i, (i + 1) % 4096, &scratch);
    benchmark::DoNotOptimize(scratch);
    i = (i + 1) % 4096;
  }
  state.SetItemsProcessed(state.iterations() * cols);
}
BENCHMARK(BM_MatchInto)->Arg(8)->Arg(32)->Arg(64)->Arg(128);

/// Random ≤3-attribute sets over a fixed schema, shared by the cache
/// benchmarks so cold and warm runs request the same partitions.
std::vector<AttributeSet> CacheWorkload(int cols, size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<AttributeSet> sets;
  sets.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    AttributeSet attrs(cols);
    int bits = 2 + static_cast<int>(rng() % 2);
    for (int b = 0; b < bits; ++b) attrs.Set(static_cast<int>(rng() % cols));
    sets.push_back(attrs);
  }
  return sets;
}

void ExportCacheCounters(benchmark::State& state, const PliCache& cache) {
  auto c = cache.counters();
  state.counters["hits"] = static_cast<double>(c.hits);
  state.counters["misses"] = static_cast<double>(c.misses);
  state.counters["evictions"] = static_cast<double>(c.evictions);
  state.counters["derivations"] = static_cast<double>(c.derivations);
  state.counters["cache_bytes"] = static_cast<double>(c.bytes);
}

/// Cold path: every Get() derives via subset intersection (Clear() between
/// iterations); the per-item cost is the intersection work the cache saves.
void BM_PliCacheColdGet(benchmark::State& state) {
  Relation r = BenchRelation(static_cast<size_t>(state.range(0)), 6, 50);
  PliCache cache = PliCache::FromRelation(r);
  auto workload = CacheWorkload(r.num_columns(), 64, /*seed=*/17);
  for (auto _ : state) {
    cache.Clear();
    for (const AttributeSet& attrs : workload) {
      benchmark::DoNotOptimize(cache.Get(attrs));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(workload.size()));
  ExportCacheCounters(state, cache);
}
BENCHMARK(BM_PliCacheColdGet)->Arg(10000)->Arg(100000);

/// Warm path: the same workload served entirely from cache hits.
void BM_PliCacheWarmGet(benchmark::State& state) {
  Relation r = BenchRelation(static_cast<size_t>(state.range(0)), 6, 50);
  PliCache cache = PliCache::FromRelation(r);
  auto workload = CacheWorkload(r.num_columns(), 64, /*seed=*/17);
  for (const AttributeSet& attrs : workload) cache.Get(attrs);  // prefill
  for (auto _ : state) {
    for (const AttributeSet& attrs : workload) {
      benchmark::DoNotOptimize(cache.Get(attrs));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(workload.size()));
  ExportCacheCounters(state, cache);
}
BENCHMARK(BM_PliCacheWarmGet)->Arg(10000)->Arg(100000);

/// Budget pressure: a budget far below the workload's footprint keeps the
/// LRU churning — measures eviction + rederivation overhead.
void BM_PliCacheEvictionChurn(benchmark::State& state) {
  Relation r = BenchRelation(50000, 6, 50);
  PliCache::Config config;
  config.budget_bytes = static_cast<size_t>(state.range(0));
  PliCache cache = PliCache::FromRelation(r, config);
  auto workload = CacheWorkload(r.num_columns(), 64, /*seed=*/17);
  for (auto _ : state) {
    for (const AttributeSet& attrs : workload) {
      benchmark::DoNotOptimize(cache.Get(attrs));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(workload.size()));
  ExportCacheCounters(state, cache);
}
BENCHMARK(BM_PliCacheEvictionChurn)->Arg(64 << 10)->Arg(1 << 20);

// ---- Storage ladder: CSV parse vs binary table write/load -----------------
// The load-time cost the binary table cache (data/table_io.h) removes. Rows
// scale up to the largest bundled dataset's default size (poly-seq, 80000).

Relation StorageRelation(size_t rows) {
  return MakeDataset("poly-seq", rows);
}

void BM_CsvParse(benchmark::State& state) {
  Relation r = StorageRelation(static_cast<size_t>(state.range(0)));
  const std::string csv = WriteCsvString(r);
  for (auto _ : state) {
    Relation parsed = ReadCsvString(csv);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(csv.size()));
}
BENCHMARK(BM_CsvParse)->Arg(10000)->Arg(80000)->Unit(benchmark::kMillisecond);

void BM_BinaryWrite(benchmark::State& state) {
  Relation r = StorageRelation(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    std::string bytes = SerializeTable(r);
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BinaryWrite)
    ->Arg(10000)
    ->Arg(80000)
    ->Unit(benchmark::kMillisecond);

void BM_BinaryLoad(benchmark::State& state) {
  Relation r = StorageRelation(static_cast<size_t>(state.range(0)));
  const std::string bytes = SerializeTable(r);
  for (auto _ : state) {
    Relation loaded = ParseTable(bytes);
    benchmark::DoNotOptimize(loaded);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_BinaryLoad)
    ->Arg(10000)
    ->Arg(80000)
    ->Unit(benchmark::kMillisecond);

// ---- Refinement shapes: legacy hash grouping vs the hash-free kernel ------
// The Validator's hot loop, isolated: one (LHS -> all other columns) check
// over a Zipf-skewed pivot whose giant clusters make per-record grouping the
// dominant cost. The planted FDs keep one RHS alive, so the scan runs to the
// end instead of early-exiting (the regime where grouping cost matters).
// Legacy comes from tests/legacy_validator.h — the frozen pre-kernel
// implementation with unordered_map / ClusterVectorHash grouping.

/// Shared fixture of the refinement benchmarks: skewed relation, its
/// preprocessed form, and the pivot/others split for an `lhs_size`-attribute
/// LHS over columns {0, 1, ...} with every remaining column as RHS.
struct RefineBenchFixture {
  Relation relation;
  PreprocessedData data;
  FDTree tree;
  AttributeSet lhs;
  AttributeSet rhss;
  std::vector<int> others;
  std::vector<int> rhs_attrs;
  RefineJob job;

  RefineBenchFixture(int lhs_size, size_t rows)
      : relation(MakeSkewedRelation(rows)),
        data(Preprocess(relation)),
        tree(data.num_attributes),
        lhs(data.num_attributes),
        rhss(data.num_attributes) {
    for (int a = 0; a < lhs_size; ++a) lhs.Set(a);
    for (int a = lhs_size; a < data.num_attributes; ++a) rhss.Set(a);
    int pivot = -1;
    for (int attr = lhs.First(); attr != AttributeSet::kNpos;
         attr = lhs.NextAfter(attr)) {
      if (pivot == -1 ||
          data.rank[static_cast<size_t>(attr)] <
              data.rank[static_cast<size_t>(pivot)]) {
        pivot = attr;
      }
    }
    size_t code_bound = 1;
    for (int attr = lhs.First(); attr != AttributeSet::kNpos;
         attr = lhs.NextAfter(attr)) {
      if (attr == pivot) continue;
      others.push_back(attr);
      code_bound = std::max(
          code_bound,
          data.plis[static_cast<size_t>(attr)].NumStrippedClusters());
    }
    rhs_attrs = rhss.ToIndexes();
    job.records = &data.records;
    job.clusters = &data.plis[static_cast<size_t>(pivot)].clusters();
    job.others = others.data();
    job.num_others = others.size();
    job.other_code_bound = code_bound;
    job.rhs_attrs = rhs_attrs.data();
    job.num_rhs = rhs_attrs.size();
  }

  static Relation MakeSkewedRelation(size_t rows) {
    GeneratorConfig config;
    config.rows = rows;
    config.seed = 19;
    config.columns = {
        ColumnSpec{.cardinality = 3, .distribution = Distribution::kZipf},
        ColumnSpec{.cardinality = 64},
        ColumnSpec{.cardinality = 48},
        ColumnSpec{.cardinality = 1000, .sources = {0, 1}},
        ColumnSpec{.cardinality = 1000, .sources = {0, 1, 2}},
        ColumnSpec{.cardinality = 24},
    };
    return Generate(config);
  }
};

void BM_RefinesTwoAttrLegacy(benchmark::State& state) {
  RefineBenchFixture f(2, static_cast<size_t>(state.range(0)));
  legacy::LegacyValidator validator(&f.data, &f.tree, 1e18);
  for (auto _ : state) {
    auto out = validator.Refines(f.lhs, f.rhss);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RefinesTwoAttrLegacy)->Arg(10000)->Arg(100000);

void BM_RefinesTwoAttrKernel(benchmark::State& state) {
  RefineBenchFixture f(2, static_cast<size_t>(state.range(0)));
  RefineArena arena;
  RefineTaskOut out;
  for (auto _ : state) {
    RunRefineTask(f.job, 0, f.job.clusters->size(), 0, 0, &arena, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RefinesTwoAttrKernel)->Arg(10000)->Arg(100000);

void BM_RefinesGeneralLegacy(benchmark::State& state) {
  RefineBenchFixture f(3, static_cast<size_t>(state.range(0)));
  legacy::LegacyValidator validator(&f.data, &f.tree, 1e18);
  for (auto _ : state) {
    auto out = validator.Refines(f.lhs, f.rhss);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RefinesGeneralLegacy)->Arg(10000)->Arg(100000);

void BM_RefinesGeneralKernel(benchmark::State& state) {
  RefineBenchFixture f(3, static_cast<size_t>(state.range(0)));
  RefineArena arena;
  RefineTaskOut out;
  for (auto _ : state) {
    RunRefineTask(f.job, 0, f.job.clusters->size(), 0, 0, &arena, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RefinesGeneralKernel)->Arg(10000)->Arg(100000);

void BM_FdTreeAddAndLookup(benchmark::State& state) {
  const int m = 32;
  std::mt19937_64 rng(11);
  std::vector<AttributeSet> lhss;
  for (int i = 0; i < 2000; ++i) {
    AttributeSet lhs(m);
    for (int b = 0; b < 4; ++b) lhs.Set(static_cast<int>(rng() % m));
    lhss.push_back(lhs);
  }
  for (auto _ : state) {
    FDTree tree(m);
    for (const auto& lhs : lhss) {
      if (!tree.ContainsFdOrGeneralization(lhs, 0)) tree.AddFd(lhs, 0);
    }
    benchmark::DoNotOptimize(tree.CountFds());
  }
  state.SetItemsProcessed(state.iterations() * lhss.size());
}
BENCHMARK(BM_FdTreeAddAndLookup);

void BM_FdTreeGetLevel(benchmark::State& state) {
  const int m = 24;
  std::mt19937_64 rng(13);
  FDTree tree(m);
  for (int i = 0; i < 5000; ++i) {
    AttributeSet lhs(m);
    for (int b = 0; b < 3; ++b) lhs.Set(static_cast<int>(rng() % m));
    tree.AddFd(lhs, static_cast<int>(rng() % m));
  }
  for (auto _ : state) {
    auto level = tree.GetLevel(3);
    benchmark::DoNotOptimize(level);
  }
}
BENCHMARK(BM_FdTreeGetLevel);

// Copy-constructs an AttributeSet over state.range(0) attributes: inline
// words up to 128 attributes, one heap array beyond.
void BM_AttributeSetCopy(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  AttributeSet source(m);
  for (int i = 0; i < m; i += 3) source.Set(i);
  for (auto _ : state) {
    AttributeSet copy = source;
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AttributeSetCopy)->Arg(38)->Arg(200);

// Folds one sampling phase's non-FDs of the column regime (the uniprot
// stand-in at 1,000 rows x 38 columns, as in the discover-wide benchmark
// workload) into a fresh candidate tree.
void BM_InductorUpdate(benchmark::State& state) {
  Relation r = MakeDataset("uniprot", 1000, 38);
  PreprocessedData data = Preprocess(r);
  Sampler sampler(&data, /*efficiency_threshold=*/0.01);
  const std::vector<AttributeSet> non_fds = sampler.Run({});
  for (auto _ : state) {
    FDTree tree(data.num_attributes);
    Inductor inductor(&tree);
    inductor.Update(non_fds);
    benchmark::DoNotOptimize(tree.root());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(non_fds.size()));
}
BENCHMARK(BM_InductorUpdate)->Unit(benchmark::kMillisecond);

// A served table for the UCC query rows, keyed by column count: 8 is the
// service-crud shape (fd-reduced 20,000 x 8, domain 24) after one mixed
// batch of 16 inserts, 16 deletes and 16 updates; 38 is the uniprot
// stand-in at 1,000 x 38. Built once per process.
const IncrementalHyFd& UccSession(int cols) {
  static std::map<int, std::unique_ptr<IncrementalHyFd>> sessions;
  std::unique_ptr<IncrementalHyFd>& session = sessions[cols];
  if (session != nullptr) return *session;
  if (cols != 8) {
    session = std::make_unique<IncrementalHyFd>(
        MakeDataset("uniprot", 1000, cols));
    return *session;
  }
  const Relation source = GenerateFdReduced(20048, 8, 24, /*seed=*/7);
  session = std::make_unique<IncrementalHyFd>(source.HeadRows(20000));
  const auto row = [&](size_t r) {
    std::vector<std::optional<std::string>> cells;
    for (int c = 0; c < source.num_columns(); ++c) {
      cells.emplace_back(source.Value(r, c));
    }
    return cells;
  };
  std::vector<std::vector<std::optional<std::string>>> inserts;
  std::vector<RecordId> deletes;
  std::vector<std::pair<RecordId, std::vector<std::optional<std::string>>>>
      updates;
  for (size_t i = 0; i < 16; ++i) {
    inserts.push_back(row(20000 + i));
    deletes.push_back(static_cast<RecordId>(i * 1000));
    updates.emplace_back(static_cast<RecordId>(i * 1000 + 500),
                         row(20016 + i));
  }
  session->ApplyMixed(inserts, deletes, updates);
  return *session;
}

// Minimal UCCs of a served table from the session's FD tree (what the
// service's QueryUccs runs).
void BM_SessionUccs(benchmark::State& state) {
  const IncrementalHyFd& session = UccSession(static_cast<int>(state.range(0)));
  size_t uccs = 0;
  for (auto _ : state) {
    uccs = session.MinimalUccs().size();
    benchmark::DoNotOptimize(uccs);
  }
  state.counters["uccs"] = static_cast<double>(uccs);
}
BENCHMARK(BM_SessionUccs)->Arg(8)->Arg(38)->Unit(benchmark::kMillisecond);

// The same answer from a copy of the live rows and a from-scratch HyUCC run.
void BM_HyUccLiveRelation(benchmark::State& state) {
  const IncrementalHyFd& session = UccSession(static_cast<int>(state.range(0)));
  size_t uccs = 0;
  for (auto _ : state) {
    HyUcc hyucc;
    uccs = hyucc.Discover(session.LiveRelation()).size();
    benchmark::DoNotOptimize(uccs);
  }
  state.counters["uccs"] = static_cast<double>(uccs);
}
BENCHMARK(BM_HyUccLiveRelation)->Arg(8)->Arg(38)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hyfd

BENCHMARK_MAIN();
