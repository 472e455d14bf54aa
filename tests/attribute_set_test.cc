#include "util/attribute_set.h"

#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

namespace hyfd {
namespace {

TEST(AttributeSetTest, StartsEmpty) {
  AttributeSet s(10);
  EXPECT_TRUE(s.Empty());
  EXPECT_EQ(s.Count(), 0);
  EXPECT_EQ(s.size(), 10);
  EXPECT_EQ(s.First(), AttributeSet::kNpos);
}

TEST(AttributeSetTest, SetTestReset) {
  AttributeSet s(70);
  s.Set(0);
  s.Set(63);
  s.Set(64);
  s.Set(69);
  EXPECT_TRUE(s.Test(0));
  EXPECT_TRUE(s.Test(63));
  EXPECT_TRUE(s.Test(64));
  EXPECT_TRUE(s.Test(69));
  EXPECT_FALSE(s.Test(1));
  EXPECT_EQ(s.Count(), 4);
  s.Reset(63);
  EXPECT_FALSE(s.Test(63));
  EXPECT_EQ(s.Count(), 3);
}

TEST(AttributeSetTest, InitializerList) {
  AttributeSet s(8, {1, 3, 5});
  EXPECT_EQ(s.ToIndexes(), (std::vector<int>{1, 3, 5}));
}

TEST(AttributeSetTest, FullClearsTailBits) {
  AttributeSet s = AttributeSet::Full(70);
  EXPECT_EQ(s.Count(), 70);
  AttributeSet t = AttributeSet::Full(64);
  EXPECT_EQ(t.Count(), 64);
}

TEST(AttributeSetTest, IterationAcrossWordBoundary) {
  AttributeSet s(130, {0, 63, 64, 127, 128, 129});
  std::vector<int> seen;
  ForEachBit(s, [&](int i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<int>{0, 63, 64, 127, 128, 129}));
}

TEST(AttributeSetTest, NextAfter) {
  AttributeSet s(100, {5, 50, 99});
  EXPECT_EQ(s.First(), 5);
  EXPECT_EQ(s.NextAfter(5), 50);
  EXPECT_EQ(s.NextAfter(50), 99);
  EXPECT_EQ(s.NextAfter(99), AttributeSet::kNpos);
  EXPECT_EQ(s.NextAfter(0), 5);
}

TEST(AttributeSetTest, SubsetChecks) {
  AttributeSet a(10, {1, 2});
  AttributeSet b(10, {1, 2, 3});
  EXPECT_TRUE(a.IsSubsetOf(b));
  EXPECT_TRUE(a.IsProperSubsetOf(b));
  EXPECT_FALSE(b.IsSubsetOf(a));
  EXPECT_TRUE(a.IsSubsetOf(a));
  EXPECT_FALSE(a.IsProperSubsetOf(a));
  AttributeSet empty(10);
  EXPECT_TRUE(empty.IsSubsetOf(a));
}

TEST(AttributeSetTest, BitwiseOperations) {
  AttributeSet a(10, {1, 2, 3});
  AttributeSet b(10, {3, 4});
  EXPECT_EQ((a & b).ToIndexes(), (std::vector<int>{3}));
  EXPECT_EQ((a | b).ToIndexes(), (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ((a ^ b).ToIndexes(), (std::vector<int>{1, 2, 4}));
  AttributeSet c = a;
  c.AndNot(b);
  EXPECT_EQ(c.ToIndexes(), (std::vector<int>{1, 2}));
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(c.Intersects(b));
}

TEST(AttributeSetTest, WithWithoutComplement) {
  AttributeSet a(5, {1});
  EXPECT_EQ(a.With(3).ToIndexes(), (std::vector<int>{1, 3}));
  EXPECT_EQ(a.Without(1).ToIndexes(), (std::vector<int>{}));
  EXPECT_EQ(a.Complement().ToIndexes(), (std::vector<int>{0, 2, 3, 4}));
  // The original is unmodified.
  EXPECT_EQ(a.ToIndexes(), (std::vector<int>{1}));
}

TEST(AttributeSetTest, EqualityAndOrdering) {
  AttributeSet a(10, {1, 2});
  AttributeSet b(10, {1, 2});
  AttributeSet c(10, {1, 3});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_TRUE(a < c);
  EXPECT_FALSE(c < a);
}

TEST(AttributeSetTest, HashableInUnorderedSet) {
  std::unordered_set<AttributeSet> set;
  set.insert(AttributeSet(10, {1, 2}));
  set.insert(AttributeSet(10, {1, 2}));
  set.insert(AttributeSet(10, {2, 3}));
  EXPECT_EQ(set.size(), 2u);
}

TEST(AttributeSetTest, ToStringWithNames) {
  AttributeSet s(3, {0, 2});
  EXPECT_EQ(s.ToString(), "{0,2}");
  EXPECT_EQ(s.ToString({"x", "y", "z"}), "[x, z]");
}

TEST(AttributeSetTest, SetAllOnEmptySet) {
  AttributeSet s(0);
  s.SetAll();
  EXPECT_EQ(s.Count(), 0);
  EXPECT_TRUE(s.Empty());
}

TEST(AttributeSetTest, WordAccessorsRoundTrip) {
  AttributeSet s(70);
  EXPECT_EQ(s.num_words(), 2u);
  s.SetWord(0, 0x5ull);
  s.SetWord(1, 0x3ull);
  EXPECT_EQ(s.Word(0), 0x5ull);
  EXPECT_EQ(s.Word(1), 0x3ull);
  EXPECT_EQ(s.ToIndexes(), (std::vector<int>{0, 2, 64, 65}));

  // The word-built set must be indistinguishable from a bit-built twin.
  AttributeSet twin(70, {0, 2, 64, 65});
  EXPECT_EQ(s, twin);
  EXPECT_EQ(s.Hash(), twin.Hash());
  EXPECT_EQ(s.Count(), twin.Count());
}

TEST(AttributeSetTest, SetWordMasksTailBits) {
  AttributeSet s(70);  // 6 valid bits in the last word
  s.SetWord(1, ~uint64_t{0});
  EXPECT_EQ(s.Word(1), 0x3Full);
  EXPECT_EQ(s.Count(), 6);
  // The zero-tail invariant keeps equality/hash consistent with Set().
  AttributeSet twin(70, {64, 65, 66, 67, 68, 69});
  EXPECT_EQ(s, twin);
  EXPECT_EQ(s.Hash(), twin.Hash());
}

TEST(AttributeSetTest, MutableWordsWritesAreVisible) {
  AttributeSet s(64);
  s.MutableWords()[0] = uint64_t{1} << 63;
  EXPECT_TRUE(s.Test(63));
  EXPECT_EQ(s.Words()[0], uint64_t{1} << 63);
  EXPECT_EQ(s.Count(), 1);
}

// ---------------------------------------------------------------------------
// Inline/heap storage boundary: sets over at most kInlineBits attributes keep
// their words inline, wider ones on the heap. Behavior must not depend on
// the mode.
// ---------------------------------------------------------------------------

const int kBoundarySizes[] = {0, 1, 63, 64, 65, 127, 128, 129, 223};

// Every third bit plus the last one, so each word is touched.
AttributeSet Patterned(int n) {
  AttributeSet s(n);
  for (int i = 0; i < n; i += 3) s.Set(i);
  if (n > 0) s.Set(n - 1);
  return s;
}

std::vector<int> PatternedIndexes(int n) {
  std::vector<int> out;
  for (int i = 0; i < n; i += 3) out.push_back(i);
  if (n > 0 && (n - 1) % 3 != 0) out.push_back(n - 1);
  return out;
}

TEST(AttributeSetBoundaryTest, QueriesAgreeAcrossSizes) {
  for (int n : kBoundarySizes) {
    SCOPED_TRACE(n);
    AttributeSet s = Patterned(n);
    const std::vector<int> expected = PatternedIndexes(n);
    EXPECT_EQ(s.size(), n);
    EXPECT_EQ(s.num_words(), static_cast<size_t>((n + 63) / 64));
    EXPECT_EQ(s.ToIndexes(), expected);
    EXPECT_EQ(s.Count(), static_cast<int>(expected.size()));
    EXPECT_EQ(s.Empty(), expected.empty());
    EXPECT_EQ(s.First(), expected.empty() ? AttributeSet::kNpos : expected[0]);
    EXPECT_EQ(s.MemoryBytes(),
              n <= AttributeSet::kInlineBits ? 0 : s.num_words() * 8);
    AttributeSet full = AttributeSet::Full(n);
    EXPECT_EQ(full.Count(), n);
    EXPECT_TRUE(s.IsSubsetOf(full));
    EXPECT_EQ(s.IsProperSubsetOf(full), s.Count() < n);
    AttributeSet complement = s.Complement();
    EXPECT_EQ(complement.Count() + s.Count(), n);
    EXPECT_FALSE(complement.Intersects(s));
    EXPECT_EQ(complement | s, full);
    EXPECT_EQ(complement ^ full, s);
    EXPECT_TRUE((complement & s).Empty());
  }
}

TEST(AttributeSetBoundaryTest, CopyAndMoveAcrossModes) {
  for (int from : kBoundarySizes) {
    for (int to : kBoundarySizes) {
      SCOPED_TRACE(std::to_string(from) + " -> " + std::to_string(to));
      const AttributeSet source = Patterned(from);

      AttributeSet copy_assigned = Patterned(to);
      copy_assigned = source;
      EXPECT_EQ(copy_assigned, source);
      EXPECT_EQ(copy_assigned.ToIndexes(), PatternedIndexes(from));

      AttributeSet moved_from = source;
      AttributeSet move_assigned = Patterned(to);
      move_assigned = std::move(moved_from);
      EXPECT_EQ(move_assigned, source);
      // A moved-from set is a valid empty set over 0 attributes.
      EXPECT_EQ(moved_from.size(), 0);  // NOLINT(bugprone-use-after-move)
      EXPECT_TRUE(moved_from.Empty());
      EXPECT_EQ(moved_from, AttributeSet());
      // ... and can be reused.
      moved_from = Patterned(to);
      EXPECT_EQ(moved_from, Patterned(to));
    }
    SCOPED_TRACE(from);
    AttributeSet original = Patterned(from);
    AttributeSet copied(original);
    EXPECT_EQ(copied, original);
    AttributeSet moved(std::move(original));
    EXPECT_EQ(moved, Patterned(from));
    EXPECT_EQ(original.size(), 0);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(original.First(), AttributeSet::kNpos);
    EXPECT_TRUE(original.Empty());
  }
}

TEST(AttributeSetBoundaryTest, SelfAssignmentKeepsTheSet) {
  for (int n : kBoundarySizes) {
    SCOPED_TRACE(n);
    AttributeSet s = Patterned(n);
    AttributeSet& alias = s;
    s = alias;
    EXPECT_EQ(s, Patterned(n));
    s = std::move(alias);
    EXPECT_EQ(s, Patterned(n));
  }
}

TEST(AttributeSetBoundaryTest, CopiesAreIndependent) {
  for (int n : {65, 128, 129, 223}) {
    SCOPED_TRACE(n);
    AttributeSet a = Patterned(n);
    AttributeSet b = a;
    b.Flip(1);
    EXPECT_NE(a, b);
    EXPECT_EQ(a, Patterned(n));
    AttributeSet c = a.With(1);
    EXPECT_TRUE(c.Test(1));
    EXPECT_FALSE(a.Test(1));
  }
}

TEST(AttributeSetBoundaryTest, TailBitsStayMasked) {
  for (int n : kBoundarySizes) {
    if (n == 0) continue;
    SCOPED_TRACE(n);
    const size_t last = static_cast<size_t>((n - 1) / 64);
    const int tail = n % 64;
    const uint64_t mask =
        tail == 0 ? ~uint64_t{0} : (uint64_t{1} << tail) - 1;
    AttributeSet all(n);
    all.SetAll();
    EXPECT_EQ(all.Word(last), mask);
    EXPECT_EQ(all.Count(), n);
    AttributeSet complement = AttributeSet(n).Complement();
    EXPECT_EQ(complement.Word(last), mask);
    EXPECT_EQ(complement, all);
    AttributeSet written(n);
    written.SetWord(last, ~uint64_t{0});
    EXPECT_EQ(written.Word(last), mask);
    EXPECT_EQ(written.Count(), n - static_cast<int>(last) * 64);
    // The masked set equals its bit-built twin, hash included.
    AttributeSet twin(n);
    for (int i = static_cast<int>(last) * 64; i < n; ++i) twin.Set(i);
    EXPECT_EQ(written, twin);
    EXPECT_EQ(written.Hash(), twin.Hash());
  }
}

TEST(AttributeSetBoundaryTest, HashEqualityAndOrderAgreeAcrossModes) {
  for (int n : kBoundarySizes) {
    SCOPED_TRACE(n);
    std::unordered_set<AttributeSet> set;
    std::vector<AttributeSet> sets = {AttributeSet(n), Patterned(n),
                                      AttributeSet::Full(n)};
    for (const AttributeSet& s : sets) {
      AttributeSet copy = s;
      EXPECT_EQ(copy.Hash(), s.Hash());
      set.insert(s);
      set.insert(copy);
    }
    EXPECT_EQ(set.size(), n == 0 ? 1u : (n == 1 ? 2u : 3u));
    // Word order is the canonical order: ∅ < patterned < full.
    if (n > 1) {
      EXPECT_TRUE(sets[0] < sets[1]);
      EXPECT_TRUE(sets[1] < sets[2]);
      EXPECT_FALSE(sets[2] < sets[1]);
    }
    EXPECT_FALSE(sets[0] < sets[0]);
  }
  // Sets over different sizes never compare equal, even when both are empty,
  // and order by size first.
  EXPECT_NE(AttributeSet(128), AttributeSet(129));
  EXPECT_TRUE(AttributeSet::Full(128) < AttributeSet(129));
}

TEST(AttributeSetBoundaryTest, HighWordDecidesOrder) {
  for (int n : {128, 129, 223}) {
    SCOPED_TRACE(n);
    AttributeSet low(n, {0, 1, 2});
    AttributeSet high(n, {n - 1});
    EXPECT_TRUE(low < high);
    EXPECT_FALSE(high < low);
  }
}

}  // namespace
}  // namespace hyfd
