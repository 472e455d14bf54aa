#include "util/attribute_set.h"

#include <sstream>

namespace hyfd {

AttributeSet AttributeSet::Full(int num_attributes) {
  AttributeSet s(num_attributes);
  s.SetAll();
  return s;
}

void AttributeSet::SetAll() {
  uint64_t* words = MutableWords();
  const size_t n = num_words();
  if (n == 0) return;
  std::fill(words, words + n, ~uint64_t{0});
  words[n - 1] &= TailMask();
}

void AttributeSet::Clear() {
  std::fill(MutableWords(), MutableWords() + num_words(), uint64_t{0});
}

AttributeSet AttributeSet::Complement() const {
  AttributeSet r(num_bits_);
  r.SetAll();
  r.AndNot(*this);
  return r;
}

std::vector<int> AttributeSet::ToIndexes() const {
  std::vector<int> out;
  out.reserve(Count());
  ForEachBit(*this, [&](int i) { out.push_back(i); });
  return out;
}

size_t AttributeSet::Hash() const {
  // FNV-1a over the words; cheap and good enough for the non-FD hash set.
  size_t h = 1469598103934665603ull;
  const uint64_t* words = Words();
  for (size_t w = 0; w < num_words(); ++w) {
    h ^= words[w];
    h *= 1099511628211ull;
  }
  return h;
}

std::string AttributeSet::ToString() const {
  std::ostringstream os;
  os << '{';
  bool first = true;
  ForEachBit(*this, [&](int i) {
    if (!first) os << ',';
    os << i;
    first = false;
  });
  os << '}';
  return os.str();
}

std::string AttributeSet::ToString(const std::vector<std::string>& names) const {
  std::ostringstream os;
  os << '[';
  bool first = true;
  ForEachBit(*this, [&](int i) {
    if (!first) os << ", ";
    os << names[static_cast<size_t>(i)];
    first = false;
  });
  os << ']';
  return os.str();
}

}  // namespace hyfd
