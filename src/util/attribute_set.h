#ifndef HYFD_UTIL_ATTRIBUTE_SET_H_
#define HYFD_UTIL_ATTRIBUTE_SET_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/check.h"

namespace hyfd {

/// A dynamic bitset over attribute indexes `[0, size())`.
///
/// AttributeSets represent left-hand sides of functional dependencies, agree
/// sets of record pairs (the paper's non-FD bitsets), and RHS candidate sets.
/// All lattice reasoning in the library (generalization / specialization
/// checks, cover computation, FDTree paths) operates on this type.
///
/// Sets over at most kInlineBits attributes keep their 64-bit words inline,
/// so copying, With() and collecting LHSs never allocate in the common
/// regime; wider sets own a heap array of ceil(size() / 64) words. All bit
/// operations are word-parallel. Two AttributeSets may only be combined if
/// they were created with the same size().
///
/// Invariant: every bit at a position >= size() is zero, including the
/// unused inline word of a set with size() <= 64. Hash(), operator==,
/// Count() and the branch-free two-word inline paths rely on it.
class AttributeSet {
 public:
  static constexpr int kNpos = -1;
  /// Widest set whose words live inline (two words).
  static constexpr int kInlineBits = 128;

  AttributeSet() = default;

  /// Creates an empty set over `num_attributes` attributes.
  explicit AttributeSet(int num_attributes) : num_bits_(num_attributes) {
    if (!IsInline()) heap_ = new uint64_t[num_words()]();
  }

  /// Creates a set over `num_attributes` attributes with `bits` set.
  AttributeSet(int num_attributes, std::initializer_list<int> bits)
      : AttributeSet(num_attributes) {
    for (int b : bits) Set(b);
  }

  AttributeSet(const AttributeSet& other) : num_bits_(other.num_bits_) {
    if (IsInline()) {
      inline_[0] = other.inline_[0];
      inline_[1] = other.inline_[1];
    } else {
      heap_ = new uint64_t[num_words()];
      std::copy(other.heap_, other.heap_ + num_words(), heap_);
    }
  }

  /// Leaves `other` a valid empty set over 0 attributes.
  AttributeSet(AttributeSet&& other) noexcept { Steal(&other); }

  AttributeSet& operator=(const AttributeSet& other) {
    if (this == &other) return *this;
    if (IsInline() && other.IsInline()) {
      num_bits_ = other.num_bits_;
      inline_[0] = other.inline_[0];
      inline_[1] = other.inline_[1];
    } else if (!IsInline() && !other.IsInline() &&
               num_words() == other.num_words()) {
      num_bits_ = other.num_bits_;  // reuse the heap words
      std::copy(other.heap_, other.heap_ + num_words(), heap_);
    } else {
      *this = AttributeSet(other);
    }
    return *this;
  }

  /// Leaves `other` a valid empty set over 0 attributes.
  AttributeSet& operator=(AttributeSet&& other) noexcept {
    if (this == &other) return *this;
    if (!IsInline()) delete[] heap_;
    Steal(&other);
    return *this;
  }

  ~AttributeSet() {
    if (!IsInline()) delete[] heap_;
  }

  /// Returns a set over `num_attributes` attributes with all bits set.
  static AttributeSet Full(int num_attributes);

  /// Number of attributes this set ranges over (not the number of set bits).
  int size() const { return num_bits_; }

  bool Test(int i) const {
    HYFD_DCHECK(i >= 0 && i < num_bits_, "AttributeSet::Test out of range");
    return (Words()[static_cast<size_t>(i) >> 6] >> (i & 63)) & 1u;
  }
  void Set(int i) {
    HYFD_DCHECK(i >= 0 && i < num_bits_, "AttributeSet::Set out of range");
    MutableWords()[static_cast<size_t>(i) >> 6] |= uint64_t{1} << (i & 63);
  }
  void Reset(int i) {
    HYFD_DCHECK(i >= 0 && i < num_bits_, "AttributeSet::Reset out of range");
    MutableWords()[static_cast<size_t>(i) >> 6] &= ~(uint64_t{1} << (i & 63));
  }
  void Flip(int i) {
    HYFD_DCHECK(i >= 0 && i < num_bits_, "AttributeSet::Flip out of range");
    MutableWords()[static_cast<size_t>(i) >> 6] ^= uint64_t{1} << (i & 63);
  }

  /// Sets every bit in `[0, size())`.
  void SetAll();
  /// Clears every bit.
  void Clear();

  /// Number of backing 64-bit words, i.e. ceil(size() / 64).
  size_t num_words() const { return (static_cast<size_t>(num_bits_) + 63) / 64; }

  /// Word `w` of the backing storage; bit `i` of the set is bit `i % 64` of
  /// word `i / 64`.
  uint64_t Word(size_t w) const {
    HYFD_DCHECK(w < num_words(), "AttributeSet::Word out of range");
    return Words()[w];
  }

  /// Overwrites word `w` wholesale. Bits at positions >= size() in the last
  /// word are masked off, preserving the invariant that unused tail bits are
  /// zero (Hash(), operator== and Count() rely on it). This is the word-level
  /// write path of CompressedRecords::MatchInto.
  void SetWord(size_t w, uint64_t value) {
    HYFD_DCHECK(w < num_words(), "AttributeSet::SetWord out of range");
    if (w + 1 == num_words()) value &= TailMask();
    MutableWords()[w] = value;
  }

  /// Raw pointer to the backing words, for bulk kernels. Callers must keep
  /// bits at positions >= size() zero; prefer SetWord, which masks the tail.
  uint64_t* MutableWords() { return IsInline() ? inline_ : heap_; }
  const uint64_t* Words() const { return IsInline() ? inline_ : heap_; }

  /// Number of set bits.
  int Count() const {
    if (IsInline()) return std::popcount(inline_[0]) + std::popcount(inline_[1]);
    int c = 0;
    for (size_t w = 0; w < num_words(); ++w) c += std::popcount(heap_[w]);
    return c;
  }
  bool Empty() const {
    if (IsInline()) return (inline_[0] | inline_[1]) == 0;
    for (size_t w = 0; w < num_words(); ++w) {
      if (heap_[w] != 0) return false;
    }
    return true;
  }

  /// Index of the lowest set bit, or kNpos if empty.
  int First() const { return NextFrom(0); }
  /// Index of the lowest set bit strictly greater than `i`, or kNpos.
  int NextAfter(int i) const { return NextFrom(i + 1); }

  /// True iff every bit of *this is also set in `other`.
  bool IsSubsetOf(const AttributeSet& other) const {
    HYFD_DCHECK(num_bits_ == other.num_bits_, "AttributeSet size mismatch");
    if (IsInline()) {
      return ((inline_[0] & ~other.inline_[0]) |
              (inline_[1] & ~other.inline_[1])) == 0;
    }
    for (size_t w = 0; w < num_words(); ++w) {
      if ((heap_[w] & ~other.heap_[w]) != 0) return false;
    }
    return true;
  }
  /// True iff *this is a subset of `other` and differs from it.
  bool IsProperSubsetOf(const AttributeSet& other) const {
    return IsSubsetOf(other) && *this != other;
  }
  /// True iff the two sets share at least one bit.
  bool Intersects(const AttributeSet& other) const {
    HYFD_DCHECK(num_bits_ == other.num_bits_, "AttributeSet size mismatch");
    if (IsInline()) {
      return ((inline_[0] & other.inline_[0]) |
              (inline_[1] & other.inline_[1])) != 0;
    }
    for (size_t w = 0; w < num_words(); ++w) {
      if ((heap_[w] & other.heap_[w]) != 0) return true;
    }
    return false;
  }

  AttributeSet& operator&=(const AttributeSet& other) {
    return Combine(other, [](uint64_t a, uint64_t b) { return a & b; });
  }
  AttributeSet& operator|=(const AttributeSet& other) {
    return Combine(other, [](uint64_t a, uint64_t b) { return a | b; });
  }
  AttributeSet& operator^=(const AttributeSet& other) {
    return Combine(other, [](uint64_t a, uint64_t b) { return a ^ b; });
  }
  /// Removes all bits of `other` from *this.
  AttributeSet& AndNot(const AttributeSet& other) {
    return Combine(other, [](uint64_t a, uint64_t b) { return a & ~b; });
  }

  friend AttributeSet operator&(AttributeSet a, const AttributeSet& b) {
    a &= b;
    return a;
  }
  friend AttributeSet operator|(AttributeSet a, const AttributeSet& b) {
    a |= b;
    return a;
  }
  friend AttributeSet operator^(AttributeSet a, const AttributeSet& b) {
    a ^= b;
    return a;
  }

  /// Returns a copy with bit `i` set.
  AttributeSet With(int i) const {
    AttributeSet r = *this;
    r.Set(i);
    return r;
  }
  /// Returns a copy with bit `i` cleared.
  AttributeSet Without(int i) const {
    AttributeSet r = *this;
    r.Reset(i);
    return r;
  }
  /// Returns the complement within `[0, size())`.
  AttributeSet Complement() const;

  /// Returns the indexes of all set bits in ascending order.
  std::vector<int> ToIndexes() const;

  friend bool operator==(const AttributeSet& a, const AttributeSet& b) {
    if (a.num_bits_ != b.num_bits_) return false;
    if (a.IsInline()) {
      return a.inline_[0] == b.inline_[0] && a.inline_[1] == b.inline_[1];
    }
    return std::equal(a.heap_, a.heap_ + a.num_words(), b.heap_);
  }
  friend bool operator!=(const AttributeSet& a, const AttributeSet& b) {
    return !(a == b);
  }
  /// Lexicographic order on the underlying words, highest word first; used
  /// for canonical sorting.
  friend bool operator<(const AttributeSet& a, const AttributeSet& b) {
    if (a.num_bits_ != b.num_bits_) return a.num_bits_ < b.num_bits_;
    if (a.IsInline()) {
      return a.inline_[1] != b.inline_[1] ? a.inline_[1] < b.inline_[1]
                                          : a.inline_[0] < b.inline_[0];
    }
    const uint64_t* aw = a.Words();
    const uint64_t* bw = b.Words();
    for (size_t w = a.num_words(); w-- > 0;) {
      if (aw[w] != bw[w]) return aw[w] < bw[w];
    }
    return false;
  }

  size_t Hash() const;

  /// Renders like "{0,2,5}" (attribute indexes) for debugging.
  std::string ToString() const;
  /// Renders using column names, e.g. "[city, zip]".
  std::string ToString(const std::vector<std::string>& names) const;

  /// Heap bytes owned by the set (for the memory guardian / Table 3): 0 for
  /// inline sets. Callers add sizeof(AttributeSet) for the object itself.
  size_t MemoryBytes() const {
    return IsInline() ? 0 : num_words() * sizeof(uint64_t);
  }

 private:
  bool IsInline() const { return num_bits_ <= kInlineBits; }

  /// Takes over `other`'s words (this set owns no heap words on entry) and
  /// resets `other` to the empty set over 0 attributes.
  void Steal(AttributeSet* other) {
    num_bits_ = other->num_bits_;
    if (IsInline()) {
      inline_[0] = other->inline_[0];
      inline_[1] = other->inline_[1];
    } else {
      heap_ = other->heap_;
    }
    other->num_bits_ = 0;
    other->inline_[0] = 0;
    other->inline_[1] = 0;
  }

  /// Mask of the valid bits of the last word.
  uint64_t TailMask() const {
    const int tail = num_bits_ & 63;
    return tail == 0 ? ~uint64_t{0} : (uint64_t{1} << tail) - 1;
  }

  /// Index of the lowest set bit at or after `i`, or kNpos.
  int NextFrom(int i) const {
    if (i >= num_bits_) return kNpos;
    const uint64_t* words = Words();
    size_t w = static_cast<size_t>(i) >> 6;
    uint64_t word = words[w] & (~uint64_t{0} << (i & 63));
    while (word == 0) {
      if (++w == num_words()) return kNpos;
      word = words[w];
    }
    return static_cast<int>(w * 64) + std::countr_zero(word);
  }

  /// Applies `op` word by word; `op(0, 0)` must be 0 so the zero tail holds.
  template <typename Op>
  AttributeSet& Combine(const AttributeSet& other, Op op) {
    HYFD_DCHECK(num_bits_ == other.num_bits_, "AttributeSet size mismatch");
    if (IsInline()) {
      inline_[0] = op(inline_[0], other.inline_[0]);
      inline_[1] = op(inline_[1], other.inline_[1]);
    } else {
      for (size_t w = 0; w < num_words(); ++w) heap_[w] = op(heap_[w], other.heap_[w]);
    }
    return *this;
  }

  int num_bits_ = 0;
  union {
    uint64_t inline_[2] = {0, 0};  ///< size() <= kInlineBits
    uint64_t* heap_;               ///< size() > kInlineBits: num_words() words
  };
};

/// Iterates the set bits of `s`, invoking `fn(int index)` for each.
template <typename Fn>
void ForEachBit(const AttributeSet& s, Fn&& fn) {
  for (int i = s.First(); i != AttributeSet::kNpos; i = s.NextAfter(i)) fn(i);
}

struct AttributeSetHash {
  size_t operator()(const AttributeSet& s) const { return s.Hash(); }
};

}  // namespace hyfd

namespace std {
template <>
struct hash<hyfd::AttributeSet> {
  size_t operator()(const hyfd::AttributeSet& s) const { return s.Hash(); }
};
}  // namespace std

#endif  // HYFD_UTIL_ATTRIBUTE_SET_H_
