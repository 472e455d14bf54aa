#include "core/inductor.h"

#include <algorithm>
#include <random>
#include <vector>

#include "fd/fd_tree.h"
#include "gtest/gtest.h"
#include "legacy_inductor.h"

namespace hyfd {
namespace {

AttributeSet Agree(std::initializer_list<int> bits, int n = 4) {
  return AttributeSet(n, bits);
}

// The worked example of paper Figure 4 over R(A,B,C,D), attributes 0..3.
// Step (0): initialize with ∅ -> ABCD.
// Step (1): specialize with non-FD D -> B (agree set {D}, differing B).
// Step (2): specialize with A -> D, B -> D, C -> D (agree sets covering D).
TEST(InductorTest, PaperFigure4Sequence) {
  FDTree tree(4);
  Inductor inductor(&tree);

  // Agree set {D} with B differing encodes D !-> B (and also D !-> A, C).
  // To isolate the paper's step we feed the exact non-FD D !-> B by using
  // an agree set {3} whose complement is {0,1,2}; the paper's figure only
  // tracks the B-column effect, which we verify below.
  inductor.Update({Agree({3})});
  // ∅ -> B is gone, replaced by minimal specializations. The paper keeps
  // A -> B and C -> B (D -> B is the violated FD itself).
  EXPECT_FALSE(tree.ContainsFd(Agree({}), 1));
  EXPECT_TRUE(tree.ContainsFd(Agree({0}), 1));
  EXPECT_TRUE(tree.ContainsFd(Agree({2}), 1));
  EXPECT_FALSE(tree.ContainsFdOrGeneralization(Agree({3}), 1));

  // Step (2): agree sets {A}, {B}, {C}. Each encodes several non-FDs at
  // once (e.g. {A} means A determines none of B, C, D). Afterwards no
  // single-attribute LHS may survive for RHS D:
  inductor.Update({Agree({0}), Agree({1}), Agree({2})});
  EXPECT_FALSE(tree.ContainsFdOrGeneralization(Agree({0}), 3));
  EXPECT_FALSE(tree.ContainsFdOrGeneralization(Agree({1}), 3));
  EXPECT_FALSE(tree.ContainsFdOrGeneralization(Agree({2}), 3));
  // ... but two-attribute specializations for D exist (the paper's
  // AC -> D / AB -> D step generalizes to: some pair determines D).
  EXPECT_TRUE(tree.ContainsFdOrGeneralization(Agree({0, 1, 2}), 3));
  // The result is exactly the minimal cover of all fed non-FDs: no stored
  // FD is violated by any of the four agree sets.
  FDSet fds = tree.ToFdSet();
  EXPECT_TRUE(fds.IsMinimal());
  for (const auto& agree : {Agree({3}), Agree({0}), Agree({1}), Agree({2})}) {
    for (const FD& fd : fds) {
      if (!agree.Test(fd.rhs)) {
        EXPECT_FALSE(fd.lhs.IsSubsetOf(agree)) << fd.ToString();
      }
    }
  }
}

TEST(InductorTest, InitializesWithMostGeneralFds) {
  FDTree tree(3);
  Inductor inductor(&tree);
  inductor.Update({});
  EXPECT_EQ(tree.CountFds(), 3u);
  for (int rhs = 0; rhs < 3; ++rhs) {
    EXPECT_TRUE(tree.ContainsFd(AttributeSet(3), rhs));
  }
}

TEST(InductorTest, ResultCoversNoNonFd) {
  // Induction invariant (paper §7): after processing, no FD in the tree is
  // violated by any processed non-FD.
  FDTree tree(5);
  Inductor inductor(&tree);
  std::vector<AttributeSet> non_fds = {
      Agree({0, 1}, 5), Agree({2}, 5), Agree({1, 3, 4}, 5), Agree({}, 5),
      Agree({0, 2, 3}, 5)};
  inductor.Update(non_fds);
  FDSet fds = tree.ToFdSet();
  for (const auto& agree : non_fds) {
    AttributeSet disagree = agree.Complement();
    ForEachBit(disagree, [&](int rhs) {
      for (const FD& fd : fds) {
        if (fd.rhs == rhs) {
          EXPECT_FALSE(fd.lhs.IsSubsetOf(agree))
              << fd.ToString() << " violated by agree set " << agree.ToString();
        }
      }
    });
  }
  EXPECT_TRUE(fds.IsMinimal());
}

TEST(InductorTest, IncrementalUpdatesMatchBatchUpdate) {
  std::vector<AttributeSet> non_fds = {Agree({0, 1}), Agree({2}), Agree({1, 3}),
                                       Agree({0, 3})};
  FDTree batch_tree(4);
  Inductor batch(&batch_tree);
  batch.Update(non_fds);

  FDTree inc_tree(4);
  Inductor inc(&inc_tree);
  for (const auto& s : non_fds) inc.Update({s});

  EXPECT_EQ(batch_tree.ToFdSet(), inc_tree.ToFdSet());
}

TEST(InductorTest, DuplicateNonFdsAreIdempotent) {
  FDTree tree(4);
  Inductor inductor(&tree);
  inductor.Update({Agree({1, 2})});
  FDSet first = tree.ToFdSet();
  inductor.Update({Agree({1, 2})});
  EXPECT_EQ(tree.ToFdSet(), first);
}

TEST(InductorTest, FullAgreeSetChangesNothing) {
  // Two identical records agree everywhere: no attribute differs, so there
  // is no violated FD to specialize.
  FDTree tree(3);
  Inductor inductor(&tree);
  inductor.Update({});
  FDSet before = tree.ToFdSet();
  inductor.Update({AttributeSet::Full(3)});
  EXPECT_EQ(tree.ToFdSet(), before);
}

// ---------------------------------------------------------------------------
// Differential against the frozen per-RHS Inductor (tests/legacy_inductor.h).
// Each agree set misses 1-4 attributes of a 12-attribute pool spread over
// [0, m), so the cover stays small at every width while LHSs still reach the
// highest attributes (m = 130 runs on heap-backed sets). Audit builds also
// check every restricted generalization lookup against the full one.
// ---------------------------------------------------------------------------

std::vector<AttributeSet> RandomNonFds(int m, const std::vector<int>& pool,
                                       size_t count, std::mt19937_64* rng) {
  std::vector<AttributeSet> out;
  for (size_t i = 0; i < count; ++i) {
    AttributeSet agree = AttributeSet::Full(m);
    const size_t misses = 1 + (*rng)() % std::min<size_t>(4, pool.size());
    for (size_t k = 0; k < misses; ++k) agree.Reset(pool[(*rng)() % pool.size()]);
    out.push_back(agree);
  }
  return out;
}

class InductorOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(InductorOracleTest, MatchesLegacyPerRhsInductor) {
  const int m = GetParam();
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed * 7919 + static_cast<uint64_t>(m));
    std::vector<int> pool(static_cast<size_t>(m));
    for (int i = 0; i < m; ++i) pool[static_cast<size_t>(i)] = i;
    std::shuffle(pool.begin(), pool.end(), rng);
    pool.resize(std::min<size_t>(pool.size(), 12));
    if (std::find(pool.begin(), pool.end(), m - 1) == pool.end()) {
      pool.back() = m - 1;
    }

    FDTree tree(m);
    FDTree oracle_tree(m);
    // Odd seeds run under a Guardian-style LHS cap.
    if (seed % 2 == 1) {
      tree.SetMaxLhsSize(3);
      oracle_tree.SetMaxLhsSize(3);
    }
    Inductor inductor(&tree);
    legacy::LegacyInductor oracle(&oracle_tree);
    for (int batch = 0; batch < 4; ++batch) {
      std::vector<AttributeSet> non_fds = RandomNonFds(m, pool, 25, &rng);
      inductor.Update(non_fds);
      oracle.Update(non_fds);
      ASSERT_EQ(tree.ToFdSet(), oracle_tree.ToFdSet()) << "batch " << batch;
      EXPECT_EQ(tree.CountNodes(), oracle_tree.CountNodes()) << "batch " << batch;
      EXPECT_NO_THROW(tree.CheckInvariants()) << "batch " << batch;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, InductorOracleTest,
                         ::testing::Values(5, 38, 70, 130));

TEST(InductorTest, ReportsUpdateMetrics) {
  FDTree tree(4);
  MetricsRegistry metrics;
  Inductor inductor(&tree, &metrics);
  inductor.Update({Agree({3}), Agree({0, 1})});
  uint64_t invalidated = 0;
  uint64_t checks = 0;
  bool timed = false;
  for (const auto& [name, value] : metrics.Export()) {
    if (name == "inductor.fds_invalidated") invalidated = value;
    if (name == "inductor.generalization_checks") checks = value;
    if (name == "inductor.update_ns") timed = true;
  }
  // The longer {0,1} folds first and invalidates ∅ -> 2 and ∅ -> 3; {3}
  // then invalidates ∅ -> 0, ∅ -> 1 and the fresh specialization {3} -> 2.
  EXPECT_EQ(invalidated, 5u);
  EXPECT_GT(checks, 0u);
  EXPECT_TRUE(timed);
}

TEST(InductorTest, UpdateReturnsTheConfirmedFdsItRemoved) {
  FDTree tree(4);
  Inductor inductor(&tree);
  EXPECT_EQ(inductor.Update({}), 0u);  // seeds ∅ -> ABCD, nothing confirmed
  tree.ConfirmAll();
  // {0,1} removes the confirmed ∅ -> 2 and ∅ -> 3 and adds the unconfirmed
  // {3} -> 2 and {2} -> 3.
  size_t confirmed_before = tree.CountConfirmedFds();
  EXPECT_EQ(inductor.Update({Agree({0, 1})}), 2u);
  EXPECT_EQ(confirmed_before - tree.CountConfirmedFds(), 2u);
  // {3} removes the confirmed ∅ -> 0 and ∅ -> 1 plus the unconfirmed
  // {3} -> 2, which is not counted.
  confirmed_before = tree.CountConfirmedFds();
  EXPECT_EQ(inductor.Update({Agree({3})}), 2u);
  EXPECT_EQ(confirmed_before - tree.CountConfirmedFds(), 2u);
}

}  // namespace
}  // namespace hyfd
