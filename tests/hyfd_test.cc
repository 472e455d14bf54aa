#include "core/hyfd.h"

#include <optional>

#include "baselines/fdep.h"
#include "data/generators.h"
#include "fd/reference.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace hyfd {
namespace {

TEST(HyFdTest, KindergartenExample) {
  Relation r = Relation::FromStringRows(
      Schema({"child", "teacher"}),
      {{"ann", "smith"}, {"bob", "smith"}, {"cara", "jones"}, {"ann", "smith"}});
  FDSet fds = DiscoverFds(r);
  EXPECT_TRUE(fds.Contains(FD(AttributeSet(2, {0}), 1)));
  EXPECT_FALSE(fds.Contains(FD(AttributeSet(2, {1}), 0)));
}

TEST(HyFdTest, MatchesBruteForceOnAddressData) {
  Relation r = MakeAddressDataset(300, 17);
  testing::ExpectSameFds(DiscoverFdsBruteForce(r), DiscoverFds(r),
                         "address dataset");
}

TEST(HyFdTest, DegenerateInputs) {
  // Empty relation.
  Relation empty{Schema::Generic(3)};
  FDSet fds = DiscoverFds(empty);
  EXPECT_EQ(fds.size(), 3u);
  for (const FD& fd : fds) EXPECT_TRUE(fd.lhs.Empty());

  // Single row.
  Relation single = Relation::FromStringRows(Schema::Generic(2), {{"a", "b"}});
  fds = DiscoverFds(single);
  EXPECT_EQ(fds.size(), 2u);

  // Single column, non-constant: no non-trivial FDs at all.
  Relation one_col = Relation::FromStringRows(Schema({"a"}), {{"x"}, {"y"}});
  EXPECT_TRUE(DiscoverFds(one_col).empty());

  // Single constant column: ∅ -> A.
  Relation const_col = Relation::FromStringRows(Schema({"a"}), {{"x"}, {"x"}});
  EXPECT_EQ(DiscoverFds(const_col).size(), 1u);
}

TEST(HyFdTest, StatsArepopulated) {
  Relation r = testing::RandomRelation(5, 100, 3, 3);
  HyFd algo;
  FDSet fds = algo.Discover(r);
  const HyFdStats& stats = algo.stats();
  EXPECT_EQ(stats.num_fds, fds.size());
  EXPECT_GT(stats.comparisons, 0u);
  EXPECT_GT(stats.validations, 0u);
  EXPECT_EQ(stats.pruned_lhs_cap, -1);  // complete result
}

TEST(HyFdTest, NullSemanticsBothWays) {
  Relation r = Relation::FromRows(
      Schema({"A", "B"}), {{std::nullopt, "1"}, {std::nullopt, "2"}, {"x", "3"}});
  HyFdConfig eq;
  eq.null_semantics = NullSemantics::kNullEqualsNull;
  EXPECT_FALSE(DiscoverFds(r, eq).Contains(FD(AttributeSet(2, {0}), 1)));
  testing::ExpectSameFds(
      DiscoverFdsBruteForce(r, NullSemantics::kNullEqualsNull),
      DiscoverFds(r, eq), "null = null");

  HyFdConfig ne;
  ne.null_semantics = NullSemantics::kNullUnequal;
  EXPECT_TRUE(DiscoverFds(r, ne).Contains(FD(AttributeSet(2, {0}), 1)));
  testing::ExpectSameFds(DiscoverFdsBruteForce(r, NullSemantics::kNullUnequal),
                         DiscoverFds(r, ne), "null != null");
}

TEST(HyFdTest, MemoryGuardianCapsLhsSize) {
  // fd-reduced-style data (uniform domain-4 cells, 8 columns, 150 rows) has
  // its minimal FDs around lattice level 4; a tiny memory cap must force
  // the guardian to prune and to report the cap.
  Relation r = GenerateFdReduced(150, 8, 4, 19);
  HyFdConfig config;
  config.memory_limit_bytes = 1;  // absurdly small: prune to LHS size 1
  HyFd algo(config);
  FDSet fds = algo.Discover(r);
  EXPECT_GE(algo.stats().pruned_lhs_cap, 1);
  for (const FD& fd : fds) {
    EXPECT_LE(fd.lhs.Count(), algo.stats().pruned_lhs_cap);
  }
  // The pruned result is a subset of the complete result.
  FDSet complete = DiscoverFdsBruteForce(r);
  for (const FD& fd : fds) {
    EXPECT_TRUE(complete.Contains(fd)) << fd.ToString();
  }
}

// Regression for the silent-truncation bug: a guardian-pruned run used to
// be indistinguishable from a complete run with fewer FDs. It must now be
// machine-detectable through stats().complete and the run report.
TEST(HyFdTest, GuardianTruncationIsReported) {
  Relation r = GenerateFdReduced(150, 8, 4, 19);
  RunReport report;
  HyFdConfig config;
  config.memory_limit_bytes = 1;
  config.run_report = &report;
  HyFd algo(config);
  FDSet pruned = algo.Discover(r);

  EXPECT_FALSE(algo.stats().complete);
  EXPECT_GE(algo.stats().guardian_prunes, 1);
  EXPECT_GE(algo.stats().pruned_lhs_cap, 1);

  EXPECT_FALSE(report.complete);
  ASSERT_FALSE(report.degradation_reasons.empty());
  EXPECT_NE(report.degradation_reasons[0].find("guardian"), std::string::npos);
  EXPECT_EQ(report.pruned_lhs_cap, algo.stats().pruned_lhs_cap);
  EXPECT_TRUE(RunReport::ValidateJsonSchema(report.ToJson()).empty());

  // The pruned result is a STRICT subset of the complete answer.
  FDSet complete = DiscoverFdsBruteForce(r);
  EXPECT_LT(pruned.size(), complete.size());
  for (const FD& fd : pruned) {
    EXPECT_TRUE(complete.Contains(fd)) << fd.ToString();
  }
}

TEST(HyFdTest, GenerousMemoryLimitStaysComplete) {
  Relation r = GenerateFdReduced(150, 8, 4, 19);
  RunReport report;
  HyFdConfig config;
  config.memory_limit_bytes = size_t{1} << 32;  // 4 GiB: never triggers
  config.run_report = &report;
  HyFd algo(config);
  FDSet fds = algo.Discover(r);

  EXPECT_TRUE(algo.stats().complete);
  EXPECT_EQ(algo.stats().pruned_lhs_cap, -1);
  EXPECT_EQ(algo.stats().guardian_prunes, 0);
  EXPECT_TRUE(report.complete);
  EXPECT_TRUE(report.degradation_reasons.empty());
  testing::ExpectSameFds(DiscoverFds(r), fds, "generous memory limit");
}

// Regression for the shadowed-cache bug: an external PliCache that does not
// describe the relation was silently ignored; it must now be reported.
TEST(HyFdTest, RejectsExternalCacheWithWrongShape) {
  Relation r = testing::RandomRelation(5, 100, 11, 3);
  Relation other = testing::RandomRelation(4, 100, 12, 3);  // wrong width
  PliCache cache = PliCache::FromRelation(other);

  RunReport report;
  HyFdConfig config;
  config.pli_cache = &cache;
  config.run_report = &report;
  HyFd algo(config);
  FDSet fds = algo.Discover(r);

  EXPECT_TRUE(algo.stats().external_cache_rejected);
  EXPECT_NE(algo.stats().external_cache_rejection_reason.find("attribute"),
            std::string::npos);
  EXPECT_TRUE(report.external_cache_rejected);
  EXPECT_EQ(report.external_cache_rejection_reason,
            algo.stats().external_cache_rejection_reason);
  // The run itself must still be correct and complete.
  EXPECT_TRUE(algo.stats().complete);
  testing::ExpectSameFds(DiscoverFdsBruteForce(r), fds, "rejected cache");
}

TEST(HyFdTest, RejectsExternalCacheWithWrongRowCountOrNulls) {
  Relation r = testing::RandomRelation(4, 100, 13, 3);

  Relation fewer = testing::RandomRelation(4, 60, 13, 3);  // wrong row count
  PliCache short_cache = PliCache::FromRelation(fewer);
  HyFdConfig config;
  config.pli_cache = &short_cache;
  HyFd algo(config);
  testing::ExpectSameFds(DiscoverFdsBruteForce(r), algo.Discover(r),
                         "short cache");
  EXPECT_TRUE(algo.stats().external_cache_rejected);
  EXPECT_NE(algo.stats().external_cache_rejection_reason.find("record"),
            std::string::npos);

  PliCache null_cache =
      PliCache::FromRelation(r, {}, NullSemantics::kNullUnequal);
  HyFdConfig null_config;  // defaults to kNullEqualsNull: mismatch
  null_config.pli_cache = &null_cache;
  HyFd null_algo(null_config);
  testing::ExpectSameFds(DiscoverFdsBruteForce(r), null_algo.Discover(r),
                         "null-semantics cache");
  EXPECT_TRUE(null_algo.stats().external_cache_rejected);
  EXPECT_NE(null_algo.stats().external_cache_rejection_reason.find("null"),
            std::string::npos);
}

TEST(HyFdTest, RejectsNonThreadSafeCacheWhenParallel) {
  Relation r = testing::RandomRelation(5, 120, 17, 3);
  PliCache cache = PliCache::FromRelation(r);  // thread_safe = false
  HyFdConfig config;
  config.pli_cache = &cache;
  config.num_threads = 4;
  HyFd algo(config);
  testing::ExpectSameFds(DiscoverFds(r), algo.Discover(r),
                         "non-thread-safe cache, 4 threads");
  EXPECT_TRUE(algo.stats().external_cache_rejected);
  EXPECT_NE(algo.stats().external_cache_rejection_reason.find("thread"),
            std::string::npos);
}

TEST(HyFdTest, CompatibleExternalCacheIsAccepted) {
  Relation r = testing::RandomRelation(5, 120, 19, 3);
  PliCache::Config cache_config;
  cache_config.thread_safe = true;
  PliCache cache = PliCache::FromRelation(r, cache_config);
  HyFdConfig config;
  config.pli_cache = &cache;
  HyFd algo(config);
  testing::ExpectSameFds(DiscoverFds(r), algo.Discover(r), "shared cache");
  EXPECT_FALSE(algo.stats().external_cache_rejected);
  EXPECT_TRUE(algo.stats().external_cache_rejection_reason.empty());
}

TEST(HyFdTest, MultiThreadedMatchesSingleThreaded) {
  Relation r = testing::RandomRelation(6, 150, 23, 3);
  HyFdConfig mt;
  mt.num_threads = 4;
  testing::ExpectSameFds(DiscoverFds(r), DiscoverFds(r, mt),
                         "multi-threaded HyFD");
}

TEST(HyFdTest, RandomSamplingStrategyMatches) {
  Relation r = testing::RandomRelation(5, 120, 29, 3);
  HyFdConfig config;
  config.sampling_strategy = SamplingStrategy::kRandomPairs;
  testing::ExpectSameFds(DiscoverFds(r), DiscoverFds(r, config),
                         "random-pair sampling ablation");
}

TEST(HyFdTest, ExtremeEfficiencyThresholdsStillCorrect) {
  Relation r = testing::RandomRelation(5, 80, 37, 3);
  FDSet expected = DiscoverFdsBruteForce(r);
  for (double threshold : {0.0001, 0.01, 0.5, 1.0}) {
    HyFdConfig config;
    config.efficiency_threshold = threshold;
    testing::ExpectSameFds(expected, DiscoverFds(r, config),
                           "threshold " + std::to_string(threshold));
  }
}

// More than AttributeSet::kInlineBits columns: every LHS, agree set and
// tree node bitset takes the heap path through the whole hybrid loop (the
// ASan job runs this). Every tenth column varies; the rest are constant, so
// the FD count stays small while LHSs reach attributes beyond 128.
TEST(HyFdTest, HeapWideTableMatchesFdep) {
  GeneratorConfig config;
  config.rows = 20;
  config.seed = 5;
  for (int c = 0; c < 140; ++c) {
    ColumnSpec spec;
    spec.cardinality = c % 10 == 9 || c == 139 ? 4 : 1;
    config.columns.push_back(spec);
  }
  Relation r = Generate(config);
  ASSERT_GT(r.num_columns(), static_cast<size_t>(AttributeSet::kInlineBits));
  FDSet expected = DiscoverFdsFdep(r);
  EXPECT_GT(expected.size(), 140u);
  testing::ExpectSameFds(expected, DiscoverFds(r), "heap-wide HyFD");
  HyFdConfig mt;
  mt.num_threads = 4;
  testing::ExpectSameFds(expected, DiscoverFds(r, mt),
                         "heap-wide HyFD, 4 threads");
}

// The main property sweep: HyFD equals brute force on many random relations
// with varying shapes, domains, and NULL rates.
struct SweepParam {
  int cols;
  size_t rows;
  int max_domain;
  double null_rate;
  uint64_t seed;
};

class HyFdSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(HyFdSweepTest, MatchesBruteForce) {
  const SweepParam& p = GetParam();
  Relation r =
      testing::RandomRelation(p.cols, p.rows, p.seed, p.max_domain, p.null_rate);
  FDSet expected = DiscoverFdsBruteForce(r);
  FDSet actual = DiscoverFds(r);
  testing::ExpectSameFds(expected, actual, "sweep");
  EXPECT_TRUE(actual.IsMinimal());
}

std::vector<SweepParam> SweepParams() {
  std::vector<SweepParam> params;
  uint64_t seed = 1000;
  for (int cols : {2, 3, 4, 5, 6, 7}) {
    for (int domain : {2, 3, 6}) {
      for (double null_rate : {0.0, 0.15}) {
        params.push_back({cols, 40, domain, null_rate, seed++});
        params.push_back({cols, 120, domain, null_rate, seed++});
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(RandomRelations, HyFdSweepTest,
                         ::testing::ValuesIn(SweepParams()));

}  // namespace
}  // namespace hyfd
