// Differential sweep for IncrementalHyFd (the "incremental" ctest label):
// for seeded generated relations, apply k random row batches and assert the
// incremental FD set is identical to a from-scratch HyFD run on the
// concatenated relation — and to the brute-force oracle on small inputs —
// after EVERY batch, under thread counts {1, 8} and with the session's PLI
// cache on and off. This is the equivalence guarantee DESIGN.md §9 promises.

#include "core/incremental.h"

#include <algorithm>
#include <optional>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "core/hyfd.h"
#include "data/generators.h"
#include "fd/reference.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/check.h"

namespace hyfd {
namespace {

std::vector<std::optional<std::string>> RowOf(const Relation& r, size_t row) {
  std::vector<std::optional<std::string>> out(
      static_cast<size_t>(r.num_columns()));
  for (int c = 0; c < r.num_columns(); ++c) {
    if (r.IsNull(row, c)) {
      out[static_cast<size_t>(c)] = std::nullopt;
    } else {
      out[static_cast<size_t>(c)] = r.Value(row, c);
    }
  }
  return out;
}

/// Rows [from, to) of `full` as one batch.
std::vector<std::vector<std::optional<std::string>>> Slice(const Relation& full,
                                                           size_t from,
                                                           size_t to) {
  std::vector<std::vector<std::optional<std::string>>> rows;
  rows.reserve(to - from);
  for (size_t r = from; r < to; ++r) rows.push_back(RowOf(full, r));
  return rows;
}

/// Splits `total` into `k` random positive parts (deterministic in rng).
std::vector<size_t> RandomSplit(size_t total, size_t k, std::mt19937_64& rng) {
  HYFD_CHECK(total >= k, "RandomSplit: not enough rows for the batch count");
  std::vector<size_t> sizes(k, 1);
  for (size_t left = total - k; left > 0; --left) ++sizes[rng() % k];
  return sizes;
}

/// The full differential schedule: seed a session from a prefix of `full`,
/// apply the remaining rows in `num_batches` random batches, and after every
/// batch compare against from-scratch HyFD (and optionally brute force) on
/// the concatenated prefix.
void RunDifferentialSchedule(const Relation& full, size_t initial_rows,
                             size_t num_batches, IncrementalConfig config,
                             uint64_t seed, bool check_brute_force,
                             const std::string& context) {
  std::mt19937_64 rng(seed * 1013904223u + 12345u);
  IncrementalHyFd session(full.HeadRows(initial_rows), config);

  HyFdConfig scratch_config;
  scratch_config.null_semantics = config.null_semantics;
  {
    FDSet scratch = DiscoverFds(full.HeadRows(initial_rows), scratch_config);
    testing::ExpectSameFds(scratch, session.fds(), context + " seed run");
  }

  size_t applied = initial_rows;
  const std::vector<size_t> sizes =
      RandomSplit(full.num_rows() - initial_rows, num_batches, rng);
  for (size_t b = 0; b < sizes.size(); ++b) {
    const FDSet& incremental =
        session.ApplyBatch(Slice(full, applied, applied + sizes[b]));
    applied += sizes[b];

    const std::string batch_context =
        context + " batch " + std::to_string(b + 1) + "/" +
        std::to_string(sizes.size()) + " (rows=" + std::to_string(applied) +
        ")";
    FDSet scratch = DiscoverFds(full.HeadRows(applied), scratch_config);
    testing::ExpectSameFds(scratch, incremental, batch_context);
    if (check_brute_force) {
      FDSet brute = DiscoverFdsBruteForce(full.HeadRows(applied),
                                          config.null_semantics);
      testing::ExpectSameFds(brute, incremental, batch_context + " vs oracle");
    }
  }
  EXPECT_EQ(applied, full.num_rows());
  EXPECT_EQ(session.num_batches(), static_cast<int>(num_batches));
  EXPECT_EQ(session.relation().num_rows(), full.num_rows());
}

// ---------------------------------------------------------------------------
// The acceptance-criteria matrix: seeds × threads {1, 8} × cache {on, off}.
// ---------------------------------------------------------------------------

class IncrementalDifferentialTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(IncrementalDifferentialTest, MatchesFromScratchAfterEveryBatch) {
  const uint64_t seed = GetParam();
  Relation full = testing::RandomRelation(5, 120, seed, 3);
  for (int threads : {1, 8}) {
    for (bool cache : {true, false}) {
      IncrementalConfig config;
      config.num_threads = threads;
      config.enable_pli_cache = cache;
      RunDifferentialSchedule(
          full, /*initial_rows=*/60, /*num_batches=*/4, config, seed,
          /*check_brute_force=*/true,
          "threads=" + std::to_string(threads) +
              " cache=" + (cache ? std::string("on") : std::string("off")));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalDifferentialTest,
                         ::testing::Range(uint64_t{700}, uint64_t{708}));

// NULL handling: the batch classifier must keep NULL apart from "" and honor
// both null semantics (NULL == NULL clusters grow; NULL ≠ NULL stays a
// stripped singleton forever).
class IncrementalNullSemanticsTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(IncrementalNullSemanticsTest, BothSemanticsMatchFromScratch) {
  const uint64_t seed = GetParam();
  Relation full = testing::RandomRelation(4, 90, seed, 3, /*null_rate=*/0.2);
  for (NullSemantics nulls :
       {NullSemantics::kNullEqualsNull, NullSemantics::kNullUnequal}) {
    IncrementalConfig config;
    config.null_semantics = nulls;
    RunDifferentialSchedule(
        full, /*initial_rows=*/40, /*num_batches=*/3, config, seed,
        /*check_brute_force=*/true,
        nulls == NullSemantics::kNullEqualsNull ? "null==null" : "null!=null");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalNullSemanticsTest,
                         ::testing::Range(uint64_t{720}, uint64_t{726}));

// Generated data with planted FDs, skew, and a key column — closer to the
// bench ladder's shape than the uniform RandomRelation.
class IncrementalGeneratedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalGeneratedTest, PlantedFdDataMatchesFromScratch) {
  GeneratorConfig gen;
  gen.rows = 300;
  gen.seed = GetParam();
  gen.columns = {
      {.cardinality = 6},
      {.cardinality = 9, .distribution = Distribution::kZipf},
      {.cardinality = 4, .null_rate = 0.05},
      {.cardinality = 0},  // key column
      {.cardinality = 5, .sources = {0, 1}},
      {.cardinality = 7, .sources = {2}},
  };
  Relation full = Generate(gen);
  IncrementalConfig config;
  config.num_threads = 8;
  RunDifferentialSchedule(full, /*initial_rows=*/200, /*num_batches=*/5,
                          config, GetParam(), /*check_brute_force=*/false,
                          "generated");
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalGeneratedTest,
                         ::testing::Range(uint64_t{740}, uint64_t{744}));

// ---------------------------------------------------------------------------
// Edge cases and session bookkeeping.
// ---------------------------------------------------------------------------

TEST(IncrementalEdgeTest, EmptyBatchIsANoOp) {
  Relation r = testing::RandomRelation(4, 50, 11, 3);
  IncrementalHyFd session(r);
  FDSet before = session.fds();
  const FDSet& after = session.ApplyBatch({});
  testing::ExpectSameFds(before, after, "empty batch");
  EXPECT_EQ(session.num_batches(), 1);
  EXPECT_EQ(session.last_batch_stats().batch_rows, 0u);
  EXPECT_EQ(session.relation().num_rows(), 50u);
}

TEST(IncrementalEdgeTest, DuplicateRowBatchLeavesFdsUnchanged) {
  Relation r = testing::RandomRelation(4, 50, 12, 3);
  IncrementalHyFd session(r);
  FDSet before = session.fds();
  // Exact copies of existing rows agree on every attribute with their twin,
  // so they can never break an FD: the set must survive bit-identically.
  const FDSet& after = session.ApplyBatch(Slice(r, 10, 20));
  testing::ExpectSameFds(before, after, "duplicate rows");
  Relation grown = r;
  for (size_t row = 10; row < 20; ++row) grown.AppendRow(RowOf(r, row));
  testing::ExpectSameFds(DiscoverFds(grown), after,
                         "duplicate rows vs from-scratch");
}

TEST(IncrementalEdgeTest, SingleRowInitialRelation) {
  Relation full = testing::RandomRelation(4, 40, 13, 3);
  IncrementalConfig config;
  RunDifferentialSchedule(full, /*initial_rows=*/1, /*num_batches=*/3, config,
                          13, /*check_brute_force=*/true, "1-row seed");
}

TEST(IncrementalEdgeTest, SingleRowBatches) {
  Relation full = testing::RandomRelation(4, 30, 14, 3);
  IncrementalConfig config;
  // Every batch is exactly one row — the heaviest invalidation churn per
  // appended row the session can see.
  RunDifferentialSchedule(full, /*initial_rows=*/25, /*num_batches=*/5, config,
                          14, /*check_brute_force=*/true, "1-row batches");
}

TEST(IncrementalEdgeTest, AllDistinctBatchValues) {
  Relation r = testing::RandomRelation(3, 30, 15, 2);
  IncrementalHyFd session(r);
  // Brand-new values everywhere: every appended cell stays a singleton and
  // no cluster is touched. The only FDs such a batch can break are the
  // empty-LHS ones — a constant column stops being constant (the restricted
  // empty-LHS check is a full IsConstant recheck, not cluster-driven).
  size_t constant_columns = 0;
  for (const FD& fd : session.fds()) {
    if (fd.lhs.Empty()) ++constant_columns;
  }
  std::vector<std::vector<std::optional<std::string>>> batch;
  for (int i = 0; i < 5; ++i) {
    batch.push_back({std::string("fresh") + std::to_string(3 * i),
                     std::string("fresh") + std::to_string(3 * i + 1),
                     std::string("fresh") + std::to_string(3 * i + 2)});
  }
  const FDSet& got = session.ApplyBatch(batch);
  EXPECT_EQ(session.last_batch_stats().touched_clusters, 0u);
  EXPECT_EQ(session.last_batch_stats().fds_invalidated, constant_columns);
  Relation grown = r;
  for (const auto& row : batch) grown.AppendRow(row);
  testing::ExpectSameFds(DiscoverFds(grown), got, "all-distinct batch");
}

TEST(IncrementalEdgeTest, StringWideningBatchReseedsTheSession) {
  // Seed with an int column where "07" and "7" share one code; a batch cell
  // that widens the column to string splits them retroactively (the rows
  // stop agreeing on column a). Clusters keyed by the old codes cannot be
  // grown in place — the session must notice the IdentityEpoch move and
  // rebuild its derived state from scratch.
  Relation r = Relation::FromStringRows(
      Schema({"a", "b"}), {{"07", "x"}, {"7", "y"}, {"8", "x"}, {"8", "y"}});
  IncrementalHyFd session(r);
  session.ApplyBatchStrings({{"n/a", "x"}});
  EXPECT_TRUE(session.last_batch_stats().reseeded);
  EXPECT_EQ(session.last_batch_stats().num_fds, session.fds().size());
  Relation grown = Relation::FromStringRows(
      Schema({"a", "b"}),
      {{"07", "x"}, {"7", "y"}, {"8", "x"}, {"8", "y"}, {"n/a", "x"}});
  testing::ExpectSameFds(DiscoverFds(grown), session.fds(), "after widening");
  EXPECT_EQ(session.relation().DistinctCount(0), 4u);  // 07, 7, 8, n/a

  // An ordinary follow-up batch grows in place again (no further epoch move)
  // and stays differentially correct on the reseeded state.
  session.ApplyBatchStrings({{"8", "y"}});
  EXPECT_FALSE(session.last_batch_stats().reseeded);
  grown.AppendRow({std::string("8"), std::string("y")});
  testing::ExpectSameFds(DiscoverFds(grown), session.fds(),
                         "batch after reseed");
}

TEST(IncrementalEdgeTest, WidthMismatchRejectsWholeBatch) {
  Relation r = testing::RandomRelation(3, 20, 16, 3);
  IncrementalHyFd session(r);
  std::vector<std::vector<std::optional<std::string>>> batch = {
      {std::string("a"), std::string("b"), std::string("c")},
      {std::string("a"), std::string("b")},  // too narrow
  };
  EXPECT_THROW(session.ApplyBatch(batch), ContractViolation);
  // Nothing was appended: the session still answers for the original rows.
  EXPECT_EQ(session.relation().num_rows(), 20u);
  testing::ExpectSameFds(DiscoverFds(r), session.fds(), "after rejected batch");
  // And the session is still usable.
  session.ApplyBatchStrings({{"a", "b", "c"}});
  EXPECT_EQ(session.relation().num_rows(), 21u);
}

TEST(IncrementalEdgeTest, BatchScheduleOrderInvariance) {
  // The same rows partitioned into different batch schedules end at the same
  // FD set (each schedule equals the from-scratch answer; comparing the two
  // sessions pins the user-visible consequence directly).
  Relation full = testing::RandomRelation(4, 60, 17, 3);
  IncrementalHyFd one(full.HeadRows(20));
  one.ApplyBatch(Slice(full, 20, 60));
  IncrementalHyFd many(full.HeadRows(20));
  for (size_t from = 20; from < 60; from += 8) {
    many.ApplyBatch(Slice(full, from, std::min<size_t>(from + 8, 60)));
  }
  testing::ExpectSameFds(one.fds(), many.fds(), "one batch vs five");
}

TEST(IncrementalStatsTest, CountersAndReportTrackTheBatch) {
  Relation full = testing::RandomRelation(5, 100, 18, 3);
  RunReport mirror;
  mirror.dataset = "unit";
  IncrementalConfig config;
  config.run_report = &mirror;
  IncrementalHyFd session(full.HeadRows(80), config);
  EXPECT_EQ(session.report().algorithm, "hyfd_incremental");
  EXPECT_EQ(mirror.dataset, "unit");  // harness label survives the overwrite

  session.ApplyBatch(Slice(full, 80, 100));
  const IncrementalBatchStats& stats = session.last_batch_stats();
  EXPECT_EQ(stats.batch_rows, 20u);
  EXPECT_EQ(stats.num_fds, session.fds().size());
  // Low-domain columns guarantee value collisions, so the batch must have
  // touched clusters and re-proven inherited FDs via the restricted path.
  EXPECT_GT(stats.touched_clusters, 0u);
  EXPECT_GT(stats.fds_revalidated, 0u);
  const RunReport& report = session.report();
  EXPECT_EQ(report.rows, 100u);
  EXPECT_EQ(report.result_count, session.fds().size());
  EXPECT_TRUE(RunReport::ValidateJsonSchema(report.ToJson()).empty());
  EXPECT_EQ(mirror.ToJson(), report.ToJson());
}

TEST(IncrementalStatsTest, ReportCarriesTheComponentMetrics) {
  Relation full = testing::RandomRelation(5, 100, 18, 3);
  IncrementalHyFd session(full.HeadRows(80));
  EXPECT_GT(session.report().FindCounter("sampler.windows").value_or(0), 0u);

  session.ApplyBatch(Slice(full, 80, 100));
  const IncrementalBatchStats& stats = session.last_batch_stats();
  ASSERT_GT(stats.touched_clusters, 0u);
  const RunReport& report = session.report();
  EXPECT_GT(report.FindCounter("validator.levels").value_or(0), 0u);
  EXPECT_GT(report.FindCounter("inductor.updates").value_or(0), 0u);
  // The registry is reset per batch: the seed's sampling does not leak in.
  EXPECT_EQ(report.FindCounter("sampler.windows").value_or(0), 0u);
  // The session's own counters are unchanged by the merge.
  EXPECT_EQ(report.FindCounter("incremental.touched_clusters"),
            stats.touched_clusters);
  EXPECT_EQ(report.FindCounter("incremental.fds_invalidated"),
            stats.fds_invalidated);
  EXPECT_EQ(report.FindCounter("incremental.fds_revalidated"),
            stats.fds_revalidated);
  EXPECT_EQ(report.FindCounter("incremental.validations"), stats.validations);
  EXPECT_EQ(report.FindCounter("incremental.comparisons"), stats.comparisons);
  EXPECT_EQ(report.FindCounter("incremental.phase_switches"),
            static_cast<uint64_t>(stats.phase_switches));
  EXPECT_EQ(report.FindCounter("incremental.batches"), 1u);
}

// ---------------------------------------------------------------------------
// The seeding discovery and HyFd::Discover run the same hybrid loop: a fresh
// session must reproduce a plain HyFD run (no memory guardian) in FD set,
// validation count and phase switches, at any thread count.
// ---------------------------------------------------------------------------

class SeededSessionMatchesHyFdTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

Relation SeedShape(int shape) {
  switch (shape) {
    case 0: return GenerateFdReduced(400, 6, 8, 1);
    case 1: return GenerateFdReduced(800, 8, 16, 2);
    case 2: return GenerateFdReduced(1200, 8, 24, 3);
    case 3: return GenerateFdReduced(300, 10, 4, 4);
    case 4: return GenerateFdReduced(600, 5, 32, 5);
    case 5: return GenerateFdReduced(1000, 12, 16, 6);
    case 6: return testing::RandomRelation(5, 100, 11, 3);
    case 7: return testing::RandomRelation(6, 300, 12, 4);
    case 8: return testing::RandomRelation(8, 200, 13, 2);
    case 9: return testing::RandomRelation(4, 500, 14, 6);
    case 10: return testing::RandomRelation(7, 150, 15, 3, /*null_rate=*/0.1);
    default: return testing::RandomRelation(10, 120, 16, 3);
  }
}

TEST_P(SeededSessionMatchesHyFdTest, SameFdsValidationsAndPhaseSwitches) {
  const auto [shape, threads] = GetParam();
  const Relation relation = SeedShape(shape);
  HyFdConfig hyfd_config;
  hyfd_config.num_threads = threads;
  HyFd hyfd(hyfd_config);
  const FDSet expected = hyfd.Discover(relation);

  IncrementalConfig session_config;
  session_config.num_threads = threads;
  IncrementalHyFd session(relation, session_config);
  const std::string context = "shape " + std::to_string(shape) + ", " +
                              std::to_string(threads) + " threads";
  testing::ExpectSameFds(expected, session.fds(), context);
  EXPECT_EQ(session.last_batch_stats().validations, hyfd.stats().validations)
      << context;
  EXPECT_EQ(session.last_batch_stats().phase_switches,
            hyfd.stats().phase_switches)
      << context;
}

INSTANTIATE_TEST_SUITE_P(Shapes, SeededSessionMatchesHyFdTest,
                         ::testing::Combine(::testing::Range(0, 12),
                                            ::testing::Values(1, 4)));

// ---------------------------------------------------------------------------
// CRUD differential: random append/delete/update ladders against from-scratch
// discovery (and the brute-force oracle) on the *live* rows.
// ---------------------------------------------------------------------------

using Row = std::vector<std::optional<std::string>>;

/// Seeds a session, then drives `num_steps` random operations — insert a
/// slice of `full`'s unused tail, delete random live rows, or update random
/// live rows to other rows' content — while mirroring the live rows in a
/// plain model. After every step the session's FD set must equal a
/// from-scratch run (and optionally the brute-force oracle) on the model.
void RunCrudSchedule(const Relation& full, size_t initial_rows,
                     size_t num_steps, IncrementalConfig config, uint64_t seed,
                     bool check_brute_force, const std::string& context) {
  std::mt19937_64 rng(seed * 2654435761u + 99u);
  IncrementalHyFd session(full.HeadRows(initial_rows), config);
  HyFdConfig scratch_config;
  scratch_config.null_semantics = config.null_semantics;

  // The model: (session physical id, row content) of every live row.
  std::vector<std::pair<RecordId, Row>> live;
  for (size_t r = 0; r < initial_rows; ++r) {
    live.emplace_back(static_cast<RecordId>(r), RowOf(full, r));
  }
  size_t next_source = initial_rows;  // next unused row of `full`

  const auto check = [&](const FDSet& got, const std::string& step_context) {
    std::vector<Row> rows;
    rows.reserve(live.size());
    for (const auto& [id, row] : live) rows.push_back(row);
    Relation model = Relation::FromRows(full.schema(), rows);
    FDSet scratch = DiscoverFds(model, scratch_config);
    testing::ExpectSameFds(scratch, got, step_context);
    if (check_brute_force) {
      FDSet brute = DiscoverFdsBruteForce(model, config.null_semantics);
      testing::ExpectSameFds(brute, got, step_context + " vs oracle");
    }
    EXPECT_EQ(session.num_live_rows(), live.size()) << step_context;
    for (const auto& [id, row] : live) {
      EXPECT_TRUE(session.IsRowLive(id)) << step_context;
    }
  };

  // Moves `k` random live entries to the tail of `live` and returns their
  // (distinct) physical ids, in tail order.
  const auto pick_tail = [&](size_t k) {
    std::vector<RecordId> ids;
    for (size_t i = 0; i < k; ++i) {
      const size_t pick = rng() % (live.size() - i);
      std::swap(live[pick], live[live.size() - 1 - i]);
    }
    for (size_t i = live.size() - k; i < live.size(); ++i) {
      ids.push_back(live[i].first);
    }
    return ids;
  };

  for (size_t step = 0; step < num_steps; ++step) {
    const std::string step_context =
        context + " step " + std::to_string(step + 1);
    const int op = static_cast<int>(rng() % 4);
    if (op == 3 && live.size() > 5 && next_source + 2 <= full.num_rows()) {
      // Mixed batch through the single-repair-pass path: 2 inserts, 2
      // deletes, 2 updates in one ApplyMixed call. Session id order:
      // inserts first, then the updates' fresh versions.
      const std::vector<RecordId> victims = pick_tail(4);
      std::vector<RecordId> deletes(victims.begin(), victims.begin() + 2);
      std::vector<std::pair<RecordId, Row>> updates;
      updates.emplace_back(victims[2], RowOf(full, rng() % full.num_rows()));
      updates.emplace_back(victims[3], RowOf(full, rng() % full.num_rows()));
      auto inserts = Slice(full, next_source, next_source + 2);
      next_source += 2;

      const RecordId base = static_cast<RecordId>(session.relation().num_rows());
      // pick_tail left victims[0..3] in tail order; entries for victims[0,1]
      // (the deletes) sit at positions live.size()-4 and live.size()-3.
      live.erase(live.end() - 4, live.end() - 2);
      live.emplace_back(base, inserts[0]);
      live.emplace_back(base + 1, inserts[1]);
      // The update victims' entries were at the (old) tail; rewrite them.
      live[live.size() - 4] = {base + 2, updates[0].second};
      live[live.size() - 3] = {base + 3, updates[1].second};
      check(session.ApplyMixed(inserts, deletes, updates),
            step_context + " mixed");
      for (RecordId id : victims) EXPECT_FALSE(session.IsRowLive(id));
    } else if (op == 0 && next_source < full.num_rows()) {
      const size_t k =
          1 + rng() % std::min<size_t>(5, full.num_rows() - next_source);
      const RecordId base = static_cast<RecordId>(session.relation().num_rows());
      auto batch = Slice(full, next_source, next_source + k);
      for (size_t i = 0; i < k; ++i) {
        live.emplace_back(base + static_cast<RecordId>(i), batch[i]);
      }
      next_source += k;
      check(session.ApplyBatch(batch), step_context + " insert");
    } else if (op == 1 && live.size() > 3) {
      const size_t k = 1 + rng() % std::min<size_t>(5, live.size() - 2);
      const std::vector<RecordId> ids = pick_tail(k);
      live.resize(live.size() - k);
      check(session.DeleteRows(ids), step_context + " delete");
      EXPECT_EQ(session.last_batch_stats().deleted_rows, k) << step_context;
      for (RecordId id : ids) EXPECT_FALSE(session.IsRowLive(id));
    } else if (live.size() > 1) {
      const size_t k = 1 + rng() % std::min<size_t>(4, live.size() - 1);
      const std::vector<RecordId> ids = pick_tail(k);
      std::vector<std::pair<RecordId, Row>> updates;
      for (RecordId id : ids) {
        updates.emplace_back(id, RowOf(full, rng() % full.num_rows()));
      }
      // ApplyCrud appends the new versions in update order, so the i-th
      // update's fresh row gets physical id base + i.
      const RecordId base = static_cast<RecordId>(session.relation().num_rows());
      for (size_t i = 0; i < k; ++i) {
        live[live.size() - k + i] = {base + static_cast<RecordId>(i),
                                     updates[i].second};
      }
      check(session.UpdateRows(updates), step_context + " update");
      for (RecordId id : ids) EXPECT_FALSE(session.IsRowLive(id));
    }
  }
}

// The acceptance-criteria matrix: seeds × threads {1, 8} × cache {on, off},
// brute-force checked after every step.
class IncrementalCrudDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalCrudDifferentialTest, MatchesFromScratchAfterEveryStep) {
  const uint64_t seed = GetParam();
  Relation full = testing::RandomRelation(5, 140, seed, 3);
  for (int threads : {1, 8}) {
    for (bool cache : {true, false}) {
      IncrementalConfig config;
      config.num_threads = threads;
      config.enable_pli_cache = cache;
      RunCrudSchedule(
          full, /*initial_rows=*/70, /*num_steps=*/8, config, seed,
          /*check_brute_force=*/true,
          "crud threads=" + std::to_string(threads) +
              " cache=" + (cache ? std::string("on") : std::string("off")));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalCrudDifferentialTest,
                         ::testing::Range(uint64_t{800}, uint64_t{806}));

// Deletes/updates under both NULL semantics: a dead NULL singleton or a
// demoted NULL cluster must update the per-column NULL bookkeeping exactly
// like a coded value.
class IncrementalCrudNullSemanticsTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalCrudNullSemanticsTest, BothSemanticsMatchFromScratch) {
  const uint64_t seed = GetParam();
  Relation full = testing::RandomRelation(4, 100, seed, 3, /*null_rate=*/0.2);
  for (NullSemantics nulls :
       {NullSemantics::kNullEqualsNull, NullSemantics::kNullUnequal}) {
    IncrementalConfig config;
    config.null_semantics = nulls;
    RunCrudSchedule(full, /*initial_rows=*/50, /*num_steps=*/8, config, seed,
                    /*check_brute_force=*/true,
                    nulls == NullSemantics::kNullEqualsNull
                        ? "crud null==null"
                        : "crud null!=null");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalCrudNullSemanticsTest,
                         ::testing::Range(uint64_t{810}, uint64_t{814}));

// Aggressive compaction (threshold 0): every delete batch immediately drops
// emptied slots and renumbers cluster ids — the remap path must keep the
// compressed records and value indexes consistent.
TEST(IncrementalCrudTest, ImmediateCompactionStaysCorrect) {
  Relation full = testing::RandomRelation(4, 120, 816, 2);
  IncrementalConfig config;
  config.pli_compact_threshold = 0.0;
  RunCrudSchedule(full, /*initial_rows=*/80, /*num_steps=*/10, config, 816,
                  /*check_brute_force=*/true, "compact-always");
}

// And the opposite: never compact, so tombstoned slots accumulate.
TEST(IncrementalCrudTest, NeverCompactStaysCorrect) {
  Relation full = testing::RandomRelation(4, 120, 817, 2);
  IncrementalConfig config;
  config.pli_compact_threshold = 1e9;
  RunCrudSchedule(full, /*initial_rows=*/80, /*num_steps=*/10, config, 817,
                  /*check_brute_force=*/true, "compact-never");
}

TEST(IncrementalCrudTest, DeleteMakesAnFdValid) {
  // A→B is violated only by the pair (row 0, row 1); deleting row 1 makes it
  // valid, so the repaired cover must *generalize* (B→A held throughout).
  Relation r = Relation::FromStringRows(
      Schema({"a", "b"}), {{"1", "x"}, {"1", "y"}, {"2", "z"}, {"3", "w"}});
  IncrementalHyFd session(r);
  FD a_to_b(AttributeSet(2, {0}), 1);
  EXPECT_FALSE(session.fds().Contains(a_to_b));

  session.DeleteRows({1});
  EXPECT_TRUE(session.fds().Contains(a_to_b));
  EXPECT_GE(session.last_batch_stats().fds_generalized, 1u);
  EXPECT_EQ(session.num_live_rows(), 3u);
  Relation expected = Relation::FromStringRows(
      Schema({"a", "b"}), {{"1", "x"}, {"2", "z"}, {"3", "w"}});
  testing::ExpectSameFds(DiscoverFds(expected), session.fds(),
                         "after deleting the violating row");
}

TEST(IncrementalCrudTest, DeleteDownToOneRowAndRecover) {
  Relation full = testing::RandomRelation(3, 20, 818, 2);
  IncrementalHyFd session(full);
  std::vector<RecordId> all_but_one;
  for (RecordId id = 1; id < 20; ++id) all_but_one.push_back(id);
  const FDSet& fds = session.DeleteRows(all_but_one);
  EXPECT_EQ(session.num_live_rows(), 1u);
  // One live row: every attribute is constant, so ∅ → A for all A.
  testing::ExpectSameFds(DiscoverFds(full.HeadRows(1)), fds, "one live row");
  // The session keeps working: re-add rows and land on the right answer.
  const FDSet& regrown = session.ApplyBatch(Slice(full, 5, 15));
  Relation expected{full.schema()};
  expected.AppendRow(RowOf(full, 0));
  for (size_t r = 5; r < 15; ++r) expected.AppendRow(RowOf(full, r));
  testing::ExpectSameFds(DiscoverFds(expected), regrown, "regrown");
}

TEST(IncrementalCrudTest, BadIdsRejectTheWholeBatch) {
  Relation r = testing::RandomRelation(3, 20, 819, 3);
  IncrementalHyFd session(r);
  const FDSet before = session.fds();

  EXPECT_THROW(session.DeleteRows({RecordId{20}}), ContractViolation);
  EXPECT_THROW(session.DeleteRows({RecordId{3}, RecordId{3}}),
               ContractViolation);
  session.DeleteRows({RecordId{5}});
  EXPECT_THROW(session.DeleteRows({RecordId{5}}), ContractViolation);
  EXPECT_THROW(session.UpdateRows({{RecordId{5}, RowOf(r, 0)}}),
               ContractViolation);
  // Updating and deleting are one id space: a too-narrow update row is a
  // width violation even when the id is fine.
  EXPECT_THROW(
      session.UpdateRows({{RecordId{2}, {std::optional<std::string>("x")}}}),
      ContractViolation);
  EXPECT_THROW(session.IsRowLive(RecordId{1000}), ContractViolation);

  // Nothing of the rejected batches landed; the session still answers.
  EXPECT_EQ(session.num_live_rows(), 19u);
  EXPECT_FALSE(session.IsRowLive(RecordId{5}));
  std::vector<Row> rows;
  for (size_t row = 0; row < 20; ++row) {
    if (row != 5) rows.push_back(RowOf(r, row));
  }
  testing::ExpectSameFds(DiscoverFds(Relation::FromRows(r.schema(), rows)),
                         session.fds(), "after rejected batches");
}

TEST(IncrementalCrudTest, CrudStatsAndReportCounters) {
  Relation full = testing::RandomRelation(5, 100, 820, 3);
  IncrementalHyFd session(full.HeadRows(90));
  session.UpdateRows({{RecordId{3}, RowOf(full, 91)},
                      {RecordId{7}, RowOf(full, 92)}});
  const IncrementalBatchStats& stats = session.last_batch_stats();
  EXPECT_EQ(stats.batch_rows, 2u);
  EXPECT_EQ(stats.deleted_rows, 2u);
  EXPECT_EQ(session.num_live_rows(), 90u);
  EXPECT_EQ(session.relation().num_rows(), 92u);  // ids never reused

  bool saw_deleted = false;
  bool saw_live = false;
  bool saw_candidates = false;
  bool saw_generalized = false;
  for (const auto& [name, value] : session.report().counters) {
    if (name == "incremental.deleted_rows") {
      saw_deleted = true;
      EXPECT_EQ(value, 2u);
    }
    if (name == "incremental.live_rows") {
      saw_live = true;
      EXPECT_EQ(value, 90u);
    }
    if (name == "incremental.generalization_candidates") saw_candidates = true;
    if (name == "incremental.fds_generalized") saw_generalized = true;
  }
  EXPECT_TRUE(saw_deleted);
  EXPECT_TRUE(saw_live);
  EXPECT_TRUE(saw_candidates);
  EXPECT_TRUE(saw_generalized);
  EXPECT_TRUE(RunReport::ValidateJsonSchema(session.report().ToJson()).empty());
}

// The Sampler's witnesses are canonical (the first pair in comparison order),
// so the witnessed cover a session seeds from is the same for any thread
// count — and with it every CRUD batch's repair work, not just its FD set.
// The seed relation is large enough for window runs to take the parallel
// path, and the batches delete enough rows to kill many witnesses.
TEST(IncrementalCrudTest, BatchStatsIdenticalAcrossThreadCounts) {
  constexpr size_t kSeedRows = 20000;
  Relation full = GenerateFdReduced(kSeedRows + 100, 8, 8, /*seed=*/31);
  IncrementalConfig serial_config;
  serial_config.efficiency_threshold = 0.001;  // many parallel window runs
  IncrementalConfig parallel_config = serial_config;
  parallel_config.num_threads = 8;
  IncrementalHyFd serial(full.HeadRows(kSeedRows), serial_config);
  IncrementalHyFd parallel(full.HeadRows(kSeedRows), parallel_config);
  testing::ExpectSameFds(serial.fds(), parallel.fds(), "seed run");

  std::mt19937_64 rng(31);
  size_t next_source = kSeedRows;
  const auto pick_live = [&](size_t k) {
    std::vector<RecordId> live;
    for (RecordId id = 0; id < serial.relation().num_rows(); ++id) {
      if (serial.IsRowLive(id)) live.push_back(id);
    }
    std::shuffle(live.begin(), live.end(), rng);
    live.resize(k);
    return live;
  };
  const auto updates_of = [&](const std::vector<RecordId>& ids) {
    std::vector<std::pair<RecordId, Row>> updates;
    for (RecordId id : ids) {
      updates.emplace_back(id, RowOf(full, rng() % full.num_rows()));
    }
    return updates;
  };

  for (int step = 0; step < 6; ++step) {
    const std::string context = "step " + std::to_string(step + 1);
    switch (step % 3) {
      case 0: {
        const std::vector<RecordId> deletes = pick_live(1000);
        serial.DeleteRows(deletes);
        parallel.DeleteRows(deletes);
        break;
      }
      case 1: {
        const auto updates = updates_of(pick_live(200));
        serial.UpdateRows(updates);
        parallel.UpdateRows(updates);
        break;
      }
      default: {
        const auto inserts = Slice(full, next_source, next_source + 20);
        next_source += 20;
        const std::vector<RecordId> victims = pick_live(700);
        const std::vector<RecordId> deletes(victims.begin(),
                                            victims.begin() + 500);
        const auto updates =
            updates_of(std::vector<RecordId>(victims.begin() + 500,
                                             victims.end()));
        serial.ApplyMixed(inserts, deletes, updates);
        parallel.ApplyMixed(inserts, deletes, updates);
        break;
      }
    }
    testing::ExpectSameFds(serial.fds(), parallel.fds(), context);
    const IncrementalBatchStats& x = serial.last_batch_stats();
    const IncrementalBatchStats& y = parallel.last_batch_stats();
    EXPECT_EQ(x.batch_rows, y.batch_rows) << context;
    EXPECT_EQ(x.deleted_rows, y.deleted_rows) << context;
    EXPECT_EQ(x.generalization_candidates, y.generalization_candidates)
        << context;
    EXPECT_EQ(x.fds_generalized, y.fds_generalized) << context;
    EXPECT_EQ(x.touched_clusters, y.touched_clusters) << context;
    EXPECT_EQ(x.fds_invalidated, y.fds_invalidated) << context;
    EXPECT_EQ(x.fds_revalidated, y.fds_revalidated) << context;
    EXPECT_EQ(x.reseeded, y.reseeded) << context;
    EXPECT_EQ(x.validations, y.validations) << context;
    EXPECT_EQ(x.comparisons, y.comparisons) << context;
    EXPECT_EQ(x.phase_switches, y.phase_switches) << context;
    EXPECT_EQ(x.num_fds, y.num_fds) << context;
  }
}

// ---------------------------------------------------------------------------
// Seed/reseed stats attribution (the last_batch_stats() regression).
// ---------------------------------------------------------------------------

TEST(IncrementalStatsTest, SeedDiscoveryAttributionIsVisible) {
  Relation r = testing::RandomRelation(5, 80, 821, 3);
  IncrementalHyFd session(r);
  // The ctor's full discovery is real work; its attribution must survive
  // into last_batch_stats() instead of being zeroed after the fact.
  EXPECT_GT(session.last_batch_stats().validations, 0u);
  EXPECT_GT(session.last_batch_stats().comparisons, 0u);
  EXPECT_EQ(session.last_batch_stats().num_fds, session.fds().size());
}

TEST(IncrementalStatsTest, ReseedBatchReportsOnlyItsOwnDiscovery) {
  // A widening batch triggers Reseed() mid-ApplyBatch. The reported counters
  // must describe the fresh full discovery alone — not the in-flight batch
  // counters stacked on top — so they must equal a fresh session seeded on
  // the same final relation (discovery is deterministic serially).
  Relation r = Relation::FromStringRows(
      Schema({"a", "b", "c"}),
      {{"07", "x", "p"}, {"7", "y", "q"}, {"8", "x", "p"}, {"9", "y", "q"}});
  IncrementalHyFd session(r);
  session.ApplyBatchStrings({{"n/a", "x", "q"}});
  EXPECT_TRUE(session.last_batch_stats().reseeded);
  EXPECT_EQ(session.last_batch_stats().batch_rows, 1u);

  Relation grown = Relation::FromStringRows(
      Schema({"a", "b", "c"}), {{"07", "x", "p"},
                                {"7", "y", "q"},
                                {"8", "x", "p"},
                                {"9", "y", "q"},
                                {"n/a", "x", "q"}});
  IncrementalHyFd fresh(grown);
  EXPECT_EQ(session.last_batch_stats().validations,
            fresh.last_batch_stats().validations);
  EXPECT_EQ(session.last_batch_stats().comparisons,
            fresh.last_batch_stats().comparisons);
  testing::ExpectSameFds(fresh.fds(), session.fds(), "reseed vs fresh");
}

TEST(IncrementalCrudTest, ReseedAfterDeletesCompactsToLiveRows) {
  // Tombstone a row, then widen a column: the reseed path must rebuild from
  // the *live* rows only (never resurrect the dead one), compacting the
  // relation and re-anchoring ids.
  Relation r = Relation::FromStringRows(
      Schema({"a", "b"}), {{"07", "x"}, {"7", "y"}, {"8", "x"}, {"9", "y"}});
  IncrementalHyFd session(r);
  session.DeleteRows({RecordId{2}});
  session.ApplyBatchStrings({{"n/a", "z"}});
  EXPECT_TRUE(session.last_batch_stats().reseeded);
  EXPECT_EQ(session.num_live_rows(), 4u);
  EXPECT_EQ(session.relation().num_rows(), 4u);  // compacted: tombstone gone
  Relation expected = Relation::FromStringRows(
      Schema({"a", "b"}), {{"07", "x"}, {"7", "y"}, {"9", "y"}, {"n/a", "z"}});
  testing::ExpectSameFds(DiscoverFds(expected), session.fds(),
                         "reseed after delete");
  // The compacted session keeps working differentially.
  const FDSet& after = session.DeleteRows({RecordId{1}});
  Relation smaller = Relation::FromStringRows(
      Schema({"a", "b"}), {{"07", "x"}, {"9", "y"}, {"n/a", "z"}});
  testing::ExpectSameFds(DiscoverFds(smaller), after,
                         "delete after reseed");
}

TEST(IncrementalStatsTest, CacheRebindsAcrossBatches) {
  Relation full = testing::RandomRelation(5, 120, 19, 3);
  IncrementalConfig config;
  config.enable_pli_cache = true;
  IncrementalHyFd session(full.HeadRows(100), config);
  session.ApplyBatch(Slice(full, 100, 110));
  session.ApplyBatch(Slice(full, 110, 120));
  // Each batch re-binds the session cache to the grown fingerprint; the
  // report carries the stale-drop delta (≥ 0 — zero only when the Validator
  // never assembled a multi-attribute partition worth caching).
  const RunReport& report = session.report();
  bool found = false;
  for (const auto& [name, value] : report.counters) {
    if (name == "incremental.cache_stale_drops") found = true;
  }
  EXPECT_TRUE(found);
  testing::ExpectSameFds(DiscoverFds(full), session.fds(), "two batches");
}

}  // namespace
}  // namespace hyfd
