#include "fd/fd_set.h"

#include "gtest/gtest.h"
#include "util/check.h"

namespace hyfd {
namespace {

AttributeSet Bits(std::initializer_list<int> bits, int n = 4) {
  return AttributeSet(n, bits);
}

TEST(FDTest, TrivialityAndGeneralization) {
  FD trivial(Bits({0, 1}), 1);
  EXPECT_TRUE(trivial.IsTrivial());
  FD fd(Bits({0, 1}), 2);
  EXPECT_FALSE(fd.IsTrivial());

  FD general(Bits({0}), 2);
  EXPECT_TRUE(general.Generalizes(fd));
  EXPECT_FALSE(fd.Generalizes(general));
  EXPECT_TRUE(fd.Generalizes(fd));  // improper generalization
  FD other_rhs(Bits({0}), 3);
  EXPECT_FALSE(other_rhs.Generalizes(fd));
}

TEST(FDTest, CanonicalOrdering) {
  FD a(Bits({0}), 1);
  FD b(Bits({0, 2}), 1);
  FD c(Bits({0}), 2);
  EXPECT_TRUE(a < b);  // same rhs, smaller lhs first
  EXPECT_TRUE(b < c);  // rhs dominates
}

TEST(FDTest, ToStringForms) {
  FD fd(Bits({0, 2}), 1);
  EXPECT_EQ(fd.ToString(), "{0,2} -> 1");
  EXPECT_EQ(fd.ToString({"w", "x", "y", "z"}), "[w, y] -> x");
}

TEST(FDSetTest, CanonicalizeSortsAndDeduplicates) {
  FDSet set;
  set.Add(Bits({0, 2}), 1);
  set.Add(Bits({0}), 1);
  set.Add(Bits({0, 2}), 1);  // duplicate
  set.Canonicalize();
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set[0], FD(Bits({0}), 1));
  EXPECT_EQ(set[1], FD(Bits({0, 2}), 1));
}

TEST(FDSetTest, CanonicalInputIsAdoptedAsIs) {
  std::vector<FD> canonical = {FD(Bits({}), 0), FD(Bits({1}), 0),
                               FD(Bits({2}), 0), FD(Bits({0, 1}), 2)};
  FDSet adopted(canonical, FDSet::kCanonical);
  EXPECT_EQ(adopted, FDSet(canonical));
  EXPECT_EQ(adopted.fds(), canonical);
}

TEST(FDSetTest, NonCanonicalInputFiresUnderDchecks) {
  if (!kDchecksEnabled) GTEST_SKIP() << "HYFD_DCHECK compiled out";
  std::vector<FD> unsorted = {FD(Bits({1}), 0), FD(Bits({}), 0)};
  EXPECT_THROW(FDSet(unsorted, FDSet::kCanonical), ContractViolation);
  std::vector<FD> duplicated = {FD(Bits({1}), 0), FD(Bits({1}), 0)};
  EXPECT_THROW(FDSet(duplicated, FDSet::kCanonical), ContractViolation);
}

TEST(FDSetTest, ContainsAndGeneralization) {
  FDSet set({FD(Bits({0}), 1), FD(Bits({2, 3}), 0)});
  EXPECT_TRUE(set.Contains(FD(Bits({0}), 1)));
  EXPECT_FALSE(set.Contains(FD(Bits({0}), 2)));
  EXPECT_TRUE(set.ContainsGeneralizationOf(FD(Bits({0, 3}), 1)));
  EXPECT_FALSE(set.ContainsGeneralizationOf(FD(Bits({3}), 1)));
}

TEST(FDSetTest, MinimalityCheck) {
  FDSet minimal({FD(Bits({0}), 1), FD(Bits({2, 3}), 1)});
  EXPECT_TRUE(minimal.IsMinimal());
  FDSet redundant({FD(Bits({0}), 1), FD(Bits({0, 2}), 1)});
  EXPECT_FALSE(redundant.IsMinimal());
}

TEST(FDSetTest, EqualityIsOrderInsensitiveAfterCanonicalize) {
  FDSet a;
  a.Add(Bits({1}), 0);
  a.Add(Bits({2}), 3);
  a.Canonicalize();
  FDSet b;
  b.Add(Bits({2}), 3);
  b.Add(Bits({1}), 0);
  b.Canonicalize();
  EXPECT_EQ(a, b);
}

TEST(FDSetTest, EmptySetBehaviour) {
  FDSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_TRUE(set.IsMinimal());
  EXPECT_FALSE(set.ContainsGeneralizationOf(FD(Bits({0}), 1)));
  EXPECT_TRUE(set.ToStrings().empty());
}

}  // namespace
}  // namespace hyfd
