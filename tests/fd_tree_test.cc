#include "fd/fd_tree.h"

#include <algorithm>
#include <random>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "baselines/agree_sets.h"
#include "core/inductor.h"
#include "data/datasets.h"
#include "gtest/gtest.h"
#include "pli/compressed_records.h"
#include "pli/pli_builder.h"
#include "util/check.h"

namespace hyfd {
namespace {

AttributeSet Bits(std::initializer_list<int> bits, int n = 5) {
  return AttributeSet(n, bits);
}

TEST(FDTreeTest, AddAndContains) {
  FDTree tree(5);
  EXPECT_TRUE(tree.AddFd(Bits({0, 2}), 3));
  EXPECT_TRUE(tree.ContainsFd(Bits({0, 2}), 3));
  EXPECT_FALSE(tree.ContainsFd(Bits({0, 2}), 4));
  EXPECT_FALSE(tree.ContainsFd(Bits({0}), 3));
  // Re-adding reports "already present".
  EXPECT_FALSE(tree.AddFd(Bits({0, 2}), 3));
}

TEST(FDTreeTest, MostGeneralFds) {
  FDTree tree(4);
  tree.AddMostGeneralFds();
  for (int rhs = 0; rhs < 4; ++rhs) {
    EXPECT_TRUE(tree.ContainsFd(AttributeSet(4), rhs));
  }
  EXPECT_EQ(tree.CountFds(), 4u);
}

TEST(FDTreeTest, ContainsFdOrGeneralization) {
  FDTree tree(5);
  tree.AddFd(Bits({1}), 3);
  EXPECT_TRUE(tree.ContainsFdOrGeneralization(Bits({1}), 3));
  EXPECT_TRUE(tree.ContainsFdOrGeneralization(Bits({1, 2}), 3));
  EXPECT_TRUE(tree.ContainsFdOrGeneralization(Bits({0, 1, 4}), 3));
  EXPECT_FALSE(tree.ContainsFdOrGeneralization(Bits({0, 2}), 3));
  EXPECT_FALSE(tree.ContainsFdOrGeneralization(Bits({1, 2}), 4));
}

TEST(FDTreeTest, EmptyLhsGeneralizesEverything) {
  FDTree tree(5);
  tree.AddFd(AttributeSet(5), 2);
  EXPECT_TRUE(tree.ContainsFdOrGeneralization(Bits({0, 1, 3, 4}), 2));
}

TEST(FDTreeTest, GetGeneralizationGroups) {
  FDTree tree(6);
  tree.AddFd(Bits({0}, 6), 4);
  tree.AddFd(Bits({1, 2}, 6), 4);
  tree.AddFd(Bits({0, 1, 2}, 6), 4);  // also a "generalization" of itself
  tree.AddFd(Bits({3}, 6), 4);        // not a subset of {0,1,2}
  tree.AddFd(Bits({0, 1}, 6), 3);     // another rhs, grouped separately
  tree.AddFd(Bits({0}, 6), 5);        // same lhs as {0} -> 4: one group
  tree.AddFd(Bits({1}, 6), 1);        // rhs outside the mask
  auto groups = tree.GetGeneralizationGroups(Bits({0, 1, 2}, 6),
                                             Bits({3, 4, 5}, 6));
  // Depth-first order over ascending attributes: ∅, {0}, {0,1}, {0,1,2},
  // {1,2}.
  ASSERT_EQ(groups.size(), 4u);
  EXPECT_EQ(groups[0].lhs, Bits({0}, 6));
  EXPECT_EQ(groups[0].rhss, Bits({4, 5}, 6));
  EXPECT_EQ(groups[1].lhs, Bits({0, 1}, 6));
  EXPECT_EQ(groups[1].rhss, Bits({3}, 6));
  EXPECT_EQ(groups[2].lhs, Bits({0, 1, 2}, 6));
  EXPECT_EQ(groups[2].rhss, Bits({4}, 6));
  EXPECT_EQ(groups[3].lhs, Bits({1, 2}, 6));
  EXPECT_EQ(groups[3].rhss, Bits({4}, 6));
}

TEST(FDTreeTest, RestrictedGeneralizationCheckOnlySeesMust) {
  // A per-RHS antichain for rhs 4. Each query below is Y ∪ {must} for a Y
  // with no stored generalization, the precondition under which the
  // restricted check equals the full one.
  FDTree tree(5);
  tree.AddFd(Bits({3}), 4);
  tree.AddFd(Bits({1, 2}), 4);
  EXPECT_TRUE(tree.ContainsFdOrGeneralizationWith(Bits({0, 2, 3}), 4, 3));
  EXPECT_TRUE(tree.ContainsFdOrGeneralizationWith(Bits({0, 1, 2}), 4, 1));
  EXPECT_FALSE(tree.ContainsFdOrGeneralizationWith(Bits({0, 2}), 4, 0));
  EXPECT_FALSE(tree.ContainsFdOrGeneralizationWith(Bits({0, 2}), 3, 0));
  // {1,2} -> 4 is stored, so {0,1,2} with must 0 breaks the precondition:
  // the restricted walk never visits {1,2}, which lacks 0, and audit builds
  // catch the disagreement with the full check.
  if (kAuditBuild) {
    EXPECT_THROW(tree.ContainsFdOrGeneralizationWith(Bits({0, 1, 2}), 4, 0),
                 ContractViolation);
  } else {
    EXPECT_FALSE(tree.ContainsFdOrGeneralizationWith(Bits({0, 1, 2}), 4, 0));
  }
}

TEST(FDTreeTest, RemoveFd) {
  FDTree tree(5);
  tree.AddFd(Bits({0, 1}), 2);
  tree.AddFd(Bits({0, 1}), 3);
  tree.RemoveFd(Bits({0, 1}), 2);
  EXPECT_FALSE(tree.ContainsFd(Bits({0, 1}), 2));
  EXPECT_TRUE(tree.ContainsFd(Bits({0, 1}), 3));
  // Removing a non-existent FD is a no-op.
  tree.RemoveFd(Bits({4}), 0);
  EXPECT_EQ(tree.CountFds(), 1u);
}

TEST(FDTreeTest, GetLevelReturnsNodesWithLhs) {
  FDTree tree(5);
  tree.AddMostGeneralFds();
  tree.AddFd(Bits({0}), 2);
  tree.AddFd(Bits({3}), 2);
  tree.AddFd(Bits({0, 1}), 4);
  auto level0 = tree.GetLevel(0);
  ASSERT_EQ(level0.size(), 1u);
  EXPECT_TRUE(level0[0].lhs.Empty());
  auto level1 = tree.GetLevel(1);
  EXPECT_EQ(level1.size(), 2u);
  auto level2 = tree.GetLevel(2);
  ASSERT_EQ(level2.size(), 1u);
  EXPECT_EQ(level2[0].lhs, Bits({0, 1}));
  EXPECT_TRUE(level2[0].node->fds.Test(4));
  EXPECT_TRUE(tree.GetLevel(3).empty());
}

TEST(FDTreeTest, AddFdAndGetIfNewNode) {
  FDTree tree(5);
  bool added = false;
  FDTree::Node* node = tree.AddFdAndGetIfNewNode(Bits({1, 3}), 0, &added);
  EXPECT_NE(node, nullptr);
  EXPECT_TRUE(added);
  // Same path, different rhs: no new node, but the FD is new.
  node = tree.AddFdAndGetIfNewNode(Bits({1, 3}), 2, &added);
  EXPECT_EQ(node, nullptr);
  EXPECT_TRUE(added);
  // Same FD again: nothing new.
  node = tree.AddFdAndGetIfNewNode(Bits({1, 3}), 2, &added);
  EXPECT_EQ(node, nullptr);
  EXPECT_FALSE(added);
}

TEST(FDTreeTest, ToFdSetRoundTrip) {
  FDTree tree(5);
  tree.AddFd(Bits({0}), 1);
  tree.AddFd(Bits({2, 4}), 0);
  tree.AddFd(AttributeSet(5), 3);
  FDSet set = tree.ToFdSet();
  EXPECT_EQ(set.size(), 3u);
  EXPECT_TRUE(set.Contains(FD(Bits({0}), 1)));
  EXPECT_TRUE(set.Contains(FD(Bits({2, 4}), 0)));
  EXPECT_TRUE(set.Contains(FD(AttributeSet(5), 3)));
}

TEST(FDTreeTest, CountNodesAndDepth) {
  FDTree tree(5);
  EXPECT_EQ(tree.CountNodes(), 1u);  // root
  EXPECT_EQ(tree.Depth(), 0);
  tree.AddFd(Bits({0, 1, 2}), 4);
  EXPECT_EQ(tree.CountNodes(), 4u);
  EXPECT_EQ(tree.Depth(), 3);
}

TEST(FDTreeTest, MaxLhsSizePrunesAndRejects) {
  FDTree tree(5);
  tree.AddFd(Bits({0}), 4);
  tree.AddFd(Bits({0, 1}), 4);
  tree.AddFd(Bits({0, 1, 2}), 4);
  tree.SetMaxLhsSize(2);
  EXPECT_TRUE(tree.ContainsFd(Bits({0}), 4));
  EXPECT_TRUE(tree.ContainsFd(Bits({0, 1}), 4));
  EXPECT_FALSE(tree.ContainsFd(Bits({0, 1, 2}), 4));
  EXPECT_EQ(tree.Depth(), 2);
  // Adds beyond the cap are refused.
  EXPECT_FALSE(tree.AddFd(Bits({1, 2, 3}), 0));
  EXPECT_EQ(tree.CountFds(), 2u);
}

TEST(FDTreeTest, RhsAttrsPruningStaysCorrectAfterRemovals) {
  FDTree tree(5);
  tree.AddFd(Bits({0, 1}), 3);
  tree.RemoveFd(Bits({0, 1}), 3);
  EXPECT_FALSE(tree.ContainsFdOrGeneralization(Bits({0, 1, 2}), 3));
  EXPECT_TRUE(tree.GetGeneralizationGroups(Bits({0, 1}), Bits({3})).empty());
}

TEST(FDTreeTest, MemoryBytesGrowsWithTree) {
  FDTree tree(20);
  size_t base = tree.MemoryBytes();
  for (int i = 0; i < 10; ++i) tree.AddFd(AttributeSet(20, {i, i + 5}), 19);
  EXPECT_GT(tree.MemoryBytes(), base);
}

// ---------------------------------------------------------------------------
// ToFdSet emits canonical order directly (buckets by rhs and depth); it must
// equal the globally sorted FDSet of the same FDs.
// ---------------------------------------------------------------------------

void CollectStored(const FDTree::Node* node, AttributeSet* path,
                   std::vector<FD>* out) {
  ForEachBit(node->fds, [&](int rhs) { out->emplace_back(*path, rhs); });
  for (size_t attr = 0; attr < node->children.size(); ++attr) {
    const FDTree::Node* child = node->children[attr].get();
    if (child == nullptr) continue;
    path->Set(static_cast<int>(attr));
    CollectStored(child, path, out);
    path->Reset(static_cast<int>(attr));
  }
}

/// Every stored FD gathered over the public node API, sorted by FDSet.
FDSet Collected(const FDTree& tree) {
  std::vector<FD> fds;
  AttributeSet path(tree.num_attributes());
  CollectStored(tree.root(), &path, &fds);
  return FDSet(std::move(fds));
}

void ExpectCanonicalToFdSet(const FDTree& tree) {
  FDSet emitted = tree.ToFdSet();
  EXPECT_EQ(emitted, Collected(tree));
  EXPECT_EQ(emitted.size(), tree.CountFds());
  const auto& fds = emitted.fds();
  EXPECT_EQ(std::adjacent_find(fds.begin(), fds.end(),
                               [](const FD& a, const FD& b) { return !(a < b); }),
            fds.end());
}

FDTree RandomTree(int m, uint64_t seed) {
  std::mt19937_64 rng(seed);
  FDTree tree(m);
  for (int i = 0; i < 400; ++i) {
    AttributeSet lhs(m);
    const int bits = static_cast<int>(rng() % 6);
    for (int b = 0; b < bits; ++b) lhs.Set(static_cast<int>(rng() % m));
    tree.AddFd(lhs, static_cast<int>(rng() % m));
  }
  return tree;
}

TEST(FDTreeTest, ToFdSetIsCanonicalOnRandomTrees) {
  for (int m : {6, 40, 130}) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      SCOPED_TRACE(std::to_string(m) + "/" + std::to_string(seed));
      ExpectCanonicalToFdSet(RandomTree(m, seed));
    }
  }
}

TEST(FDTreeTest, ToFdSetIsCanonicalOnGuardianCappedTrees) {
  for (int m : {6, 40, 130}) {
    for (int cap : {0, 1, 3}) {
      SCOPED_TRACE(std::to_string(m) + "/" + std::to_string(cap));
      FDTree tree = RandomTree(m, static_cast<uint64_t>(m + cap));
      tree.SetMaxLhsSize(cap);
      EXPECT_LE(tree.Depth(), cap);
      ExpectCanonicalToFdSet(tree);
    }
  }
}

TEST(FDTreeTest, ToFdSetIsCanonicalOnFdepTree) {
  // FDEP's positive cover: every agree set of the relation, specialized.
  Relation r = MakeDataset("uniprot", 60, 14);
  auto plis = BuildAllColumnPlis(r);
  CompressedRecords records(plis, r.num_rows());
  std::unordered_set<AttributeSet> agree_sets = ComputeAgreeSets(records);
  FDTree tree(static_cast<int>(r.num_columns()));
  Inductor inductor(&tree);
  inductor.Update(std::vector<AttributeSet>(agree_sets.begin(), agree_sets.end()));
  EXPECT_GT(tree.CountFds(), 100u);
  EXPECT_NO_THROW(tree.CheckInvariants());
  ExpectCanonicalToFdSet(tree);
}

}  // namespace
}  // namespace hyfd
