#include "fd/fd_tree.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"

namespace hyfd {
namespace {

/// Recursive helper for ContainsFdOrGeneralization (kBits = fds) and
/// ContainsConfirmedFdOrGeneralization (kBits = confirmed): scan subsets of
/// the remaining LHS bits (after `from`) along existing tree paths. The
/// rhs_attrs pruning holds for both: confirmed ⊆ fds ⊆ rhs_attrs.
template <AttributeSet FDTree::Node::*kBits>
bool FindGeneralization(const FDTree::Node* node, const AttributeSet& lhs,
                        int rhs, int from) {
  if ((node->*kBits).Test(rhs)) return true;
  if (!node->rhs_attrs.Test(rhs)) return false;
  for (int attr = lhs.NextAfter(from); attr != AttributeSet::kNpos;
       attr = lhs.NextAfter(attr)) {
    const FDTree::Node* child = node->Child(attr);
    if (child != nullptr && FindGeneralization<kBits>(child, lhs, rhs, attr)) {
      return true;
    }
  }
  return false;
}

/// Recursive helper for FindGeneralizedRhss(With): clears from `pending`
/// every RHS stored at a node whose path contains `must` (every node when
/// `must` is -1). Paths spell ascending attributes, so a path that has not
/// taken `must` yet may not step past it, and only nodes at or below `must`
/// can answer.
void ClearGeneralizedWith(const FDTree::Node* node, const AttributeSet& lhs,
                          int from, int must, AttributeSet* pending) {
  const bool has_must = from >= must;
  if (has_must) pending->AndNot(node->fds);
  if (!node->rhs_attrs.Intersects(*pending)) return;
  for (int attr = lhs.NextAfter(from); attr != AttributeSet::kNpos;
       attr = lhs.NextAfter(attr)) {
    if (!has_must && attr > must) break;
    const FDTree::Node* child = node->Child(attr);
    if (child == nullptr) continue;
    ClearGeneralizedWith(child, lhs, attr, must, pending);
    if (pending->Empty()) return;
  }
}

void CollectGeneralizationGroups(const FDTree::Node* node,
                                 const AttributeSet& lhs,
                                 const AttributeSet& rhss, int from,
                                 AttributeSet* path,
                                 std::vector<FDTree::LhsGroup>* out) {
  if (node->fds.Intersects(rhss)) out->push_back({*path, node->fds & rhss});
  if (!node->rhs_attrs.Intersects(rhss)) return;
  for (int attr = lhs.NextAfter(from); attr != AttributeSet::kNpos;
       attr = lhs.NextAfter(attr)) {
    const FDTree::Node* child = node->Child(attr);
    if (child == nullptr) continue;
    path->Set(attr);
    CollectGeneralizationGroups(child, lhs, rhss, attr, path, out);
    path->Reset(attr);
  }
}

void CollectLevel(FDTree::Node* node, int remaining, AttributeSet* path,
                  std::vector<FDTree::LevelEntry>* out) {
  if (remaining == 0) {
    out->push_back({node, *path});
    return;
  }
  if (node->children.empty()) return;
  for (size_t attr = 0; attr < node->children.size(); ++attr) {
    FDTree::Node* child = node->children[attr].get();
    if (child == nullptr) continue;
    path->Set(static_cast<int>(attr));
    CollectLevel(child, remaining - 1, path, out);
    path->Reset(static_cast<int>(attr));
  }
}

/// Calls `fn(node, lhs, depth)` for every node, depth first in ascending
/// attribute order; `lhs` is the LHS the node's path spells and `depth` its
/// size. NodeT is FDTree::Node or const FDTree::Node.
template <typename NodeT, typename Fn>
void ForEachNodeRec(NodeT* node, size_t depth, AttributeSet* path, Fn& fn) {
  fn(*node, static_cast<const AttributeSet&>(*path), depth);
  if (node->children.empty()) return;
  for (size_t attr = 0; attr < node->children.size(); ++attr) {
    NodeT* child = node->children[attr].get();
    if (child == nullptr) continue;
    path->Set(static_cast<int>(attr));
    ForEachNodeRec(child, depth + 1, path, fn);
    path->Reset(static_cast<int>(attr));
  }
}

template <typename NodeT, typename Fn>
void ForEachNode(NodeT* root, int num_attributes, Fn fn) {
  AttributeSet path(num_attributes);
  ForEachNodeRec(root, 0, &path, fn);
}

/// Sums `value(node)` over every node of the subtree (no path bookkeeping).
template <typename Fn>
size_t SumOverNodes(const FDTree::Node* node, const Fn& value) {
  size_t sum = value(*node);
  for (const auto& child : node->children) {
    if (child) sum += SumOverNodes(child.get(), value);
  }
  return sum;
}

/// Recursive structural audit for FDTree::CheckInvariants.
void CheckNodeInvariants(const FDTree::Node* node, int num_attributes,
                         int depth, int max_lhs_size) {
  HYFD_CHECK(node->fds.size() == num_attributes,
             "FDTree: fds bitset ranges over the wrong attribute count");
  HYFD_CHECK(node->rhs_attrs.size() == num_attributes,
             "FDTree: rhs_attrs bitset ranges over the wrong attribute count");
  HYFD_CHECK(node->fds.IsSubsetOf(node->rhs_attrs),
             "FDTree: stored RHS missing from the node's rhs_attrs superset");
  HYFD_CHECK(node->confirmed.size() == num_attributes,
             "FDTree: confirmed bitset ranges over the wrong attribute count");
  HYFD_CHECK(node->confirmed.IsSubsetOf(node->fds),
             "FDTree: confirmed RHS that is not a stored FD");
  HYFD_CHECK(node->children.empty() ||
                 node->children.size() == static_cast<size_t>(num_attributes),
             "FDTree: child slots outside the attribute range");
  HYFD_CHECK(max_lhs_size < 0 || depth <= max_lhs_size,
             "FDTree: node deeper than the Guardian's LHS cap");
  AttributeSet child_union(num_attributes);
  for (const auto& child : node->children) {
    if (child == nullptr) continue;
    CheckNodeInvariants(child.get(), num_attributes, depth + 1, max_lhs_size);
    child_union |= child->rhs_attrs;
  }
  HYFD_CHECK(child_union.IsSubsetOf(node->rhs_attrs),
             "FDTree: rhs_attrs under-approximates the subtree's RHS union");
}

/// Prunes nodes deeper than `remaining` levels; recomputes rhs_attrs from
/// the surviving FDs. Returns the subtree's new rhs_attrs union.
AttributeSet PruneDeep(FDTree::Node* node, int remaining) {
  AttributeSet rhs_union = node->fds;
  if (remaining == 0) {
    node->children.clear();
  } else {
    for (auto& child : node->children) {
      if (child) rhs_union |= PruneDeep(child.get(), remaining - 1);
    }
  }
  node->rhs_attrs = rhs_union;
  return rhs_union;
}

}  // namespace

FDTree::FDTree(int num_attributes)
    : num_attributes_(num_attributes),
      root_(std::make_unique<Node>(num_attributes)) {}

void FDTree::AddMostGeneralFds() {
  root_->fds.SetAll();
  root_->rhs_attrs.SetAll();
}

FDTree::Node* FDTree::GetOrCreateChild(Node* node, int attr) {
  if (node->children.empty()) {
    node->children.resize(static_cast<size_t>(num_attributes_));
  }
  auto& slot = node->children[static_cast<size_t>(attr)];
  if (!slot) slot = std::make_unique<Node>(num_attributes_);
  return slot.get();
}

bool FDTree::AddFd(const AttributeSet& lhs, int rhs) {
  bool added = false;
  AddFdAndGetIfNewNode(lhs, rhs, &added);
  return added;
}

FDTree::Node* FDTree::AddFdAndGetIfNewNode(const AttributeSet& lhs, int rhs,
                                           bool* added) {
  if (max_lhs_size_ >= 0 && lhs.Count() > max_lhs_size_) {
    if (added != nullptr) *added = false;
    return nullptr;
  }
  Node* node = root_.get();
  node->rhs_attrs.Set(rhs);
  bool created_node = false;
  ForEachBit(lhs, [&](int attr) {
    Node* child = node->Child(attr);
    if (child == nullptr) {
      child = GetOrCreateChild(node, attr);
      created_node = true;
    }
    child->rhs_attrs.Set(rhs);
    node = child;
  });
  bool was_present = node->fds.Test(rhs);
  node->fds.Set(rhs);
  if (added != nullptr) *added = !was_present;
  return created_node ? node : nullptr;
}

bool FDTree::RemoveFd(const AttributeSet& lhs, int rhs) {
  Node* node = root_.get();
  for (int attr = lhs.First(); attr != AttributeSet::kNpos;
       attr = lhs.NextAfter(attr)) {
    node = node->Child(attr);
    if (node == nullptr) return false;
  }
  const bool was_confirmed = node->confirmed.Test(rhs);
  node->fds.Reset(rhs);
  node->confirmed.Reset(rhs);
  // rhs_attrs along the path may now over-approximate; that only costs lookup
  // time, never correctness, so we do not recompute it here.
  return was_confirmed;
}

bool FDTree::ContainsFd(const AttributeSet& lhs, int rhs) const {
  const Node* node = root_.get();
  for (int attr = lhs.First(); attr != AttributeSet::kNpos;
       attr = lhs.NextAfter(attr)) {
    node = node->Child(attr);
    if (node == nullptr) return false;
  }
  return node->fds.Test(rhs);
}

bool FDTree::ContainsFdOrGeneralization(const AttributeSet& lhs, int rhs) const {
  return FindGeneralization<&Node::fds>(root_.get(), lhs, rhs, -1);
}

bool FDTree::ContainsFdOrGeneralizationWith(const AttributeSet& lhs, int rhs,
                                            int must) const {
  AttributeSet only_rhs(num_attributes_);
  only_rhs.Set(rhs);
  return !FindGeneralizedRhssWith(lhs, only_rhs, must).Empty();
}

AttributeSet FDTree::FindGeneralizedRhss(const AttributeSet& lhs,
                                         const AttributeSet& rhss) const {
  AttributeSet pending = rhss;
  ClearGeneralizedWith(root_.get(), lhs, -1, -1, &pending);
  AttributeSet found = rhss;
  found.AndNot(pending);
  return found;
}

AttributeSet FDTree::FindGeneralizedRhssWith(const AttributeSet& lhs,
                                             const AttributeSet& rhss,
                                             int must) const {
  HYFD_DCHECK(lhs.Test(must),
              "FDTree::FindGeneralizedRhssWith: must is not in lhs");
  AttributeSet pending = rhss;
  ClearGeneralizedWith(root_.get(), lhs, -1, must, &pending);
  AttributeSet found = rhss;
  found.AndNot(pending);
  HYFD_AUDIT_ONLY(ForEachBit(rhss, [&](int rhs) {
    HYFD_CHECK(found.Test(rhs) == ContainsFdOrGeneralization(lhs, rhs),
               "FDTree: restricted generalization check disagrees with the "
               "full one");
  }));
  return found;
}

std::vector<FDTree::LhsGroup> FDTree::GetGeneralizationGroups(
    const AttributeSet& lhs, const AttributeSet& rhss) const {
  std::vector<LhsGroup> out;
  AttributeSet path(num_attributes_);
  CollectGeneralizationGroups(root_.get(), lhs, rhss, -1, &path, &out);
  return out;
}

std::vector<FDTree::LevelEntry> FDTree::GetLevel(int level) {
  std::vector<LevelEntry> out;
  AttributeSet path(num_attributes_);
  CollectLevel(root_.get(), level, &path, &out);
  return out;
}

FDSet FDTree::ToFdSet() const {
  // Canonical order is (rhs, LHS size, LHS) and depth equals LHS size: count
  // the FDs of every (rhs, depth) bucket, place each FD at its bucket's next
  // slot, and sort only within buckets.
  const size_t depths = static_cast<size_t>(Depth()) + 1;
  auto bucket = [depths](size_t depth, int rhs) {
    return static_cast<size_t>(rhs) * depths + depth;
  };
  // next[b] starts as the first slot of bucket b and ends one past its last.
  std::vector<size_t> next(static_cast<size_t>(num_attributes_) * depths + 1, 0);
  ForEachNode(root_.get(), num_attributes_,
              [&](const Node& node, const AttributeSet&, size_t depth) {
                ForEachBit(node.fds,
                           [&](int rhs) { ++next[bucket(depth, rhs) + 1]; });
              });
  std::partial_sum(next.begin(), next.end(), next.begin());
  std::vector<FD> fds(next.back());
  ForEachNode(root_.get(), num_attributes_,
              [&](const Node& node, const AttributeSet& lhs, size_t depth) {
                ForEachBit(node.fds, [&](int rhs) {
                  FD& fd = fds[next[bucket(depth, rhs)]++];
                  fd.lhs = lhs;
                  fd.rhs = rhs;
                });
              });
  size_t begin = 0;
  for (size_t b = 0; b + 1 < next.size(); ++b) {
    std::sort(fds.begin() + static_cast<std::ptrdiff_t>(begin),
              fds.begin() + static_cast<std::ptrdiff_t>(next[b]),
              [](const FD& x, const FD& y) { return x.lhs < y.lhs; });
    begin = next[b];
  }
  return FDSet(std::move(fds), FDSet::kCanonical);
}

size_t FDTree::CountFds() const {
  return SumOverNodes(root_.get(), [](const Node& node) {
    return static_cast<size_t>(node.fds.Count());
  });
}

size_t FDTree::CountConfirmedFds() const {
  return SumOverNodes(root_.get(), [](const Node& node) {
    return static_cast<size_t>(node.confirmed.Count());
  });
}

void FDTree::ConfirmAll() {
  ForEachNode(root_.get(), num_attributes_,
              [](Node& node, auto&&...) { node.confirmed = node.fds; });
}

bool FDTree::ContainsConfirmedFdOrGeneralization(const AttributeSet& lhs,
                                                 int rhs) const {
  return FindGeneralization<&Node::confirmed>(root_.get(), lhs, rhs, -1);
}

void FDTree::ConfirmFrom(const FDTree& proven) {
  HYFD_CHECK(proven.num_attributes() == num_attributes_,
             "FDTree::ConfirmFrom: attribute counts disagree");
  ForEachNode(root_.get(), num_attributes_,
              [&](Node& node, const AttributeSet& lhs, size_t) {
                ForEachBit(node.fds, [&](int rhs) {
                  if (proven.ContainsConfirmedFdOrGeneralization(lhs, rhs)) {
                    node.confirmed.Set(rhs);
                  }
                });
              });
}

std::vector<FD> FDTree::CollectGeneralizationCandidates() const {
  std::vector<FD> out;
  ForEachNode(root_.get(), num_attributes_,
              [&](const Node& node, const AttributeSet& lhs, size_t) {
                ForEachBit(node.fds, [&](int rhs) {
                  if (!node.confirmed.Test(rhs)) out.emplace_back(lhs, rhs);
                });
              });
  return out;
}

size_t FDTree::CountNodes() const {
  return SumOverNodes(root_.get(), [](const Node&) { return size_t{1}; });
}

int FDTree::Depth() const {
  size_t depth = 0;
  ForEachNode(root_.get(), num_attributes_,
              [&](auto&&, auto&&, size_t d) { depth = std::max(depth, d); });
  return static_cast<int>(depth);
}

size_t FDTree::MemoryBytes() const {
  return SumOverNodes(root_.get(), [](const Node& node) {
    return sizeof(Node) + node.fds.MemoryBytes() +
           node.rhs_attrs.MemoryBytes() + node.confirmed.MemoryBytes() +
           node.children.capacity() * sizeof(std::unique_ptr<Node>);
  });
}

void FDTree::SetMaxLhsSize(int k) {
  max_lhs_size_ = k;
  if (k >= 0) PruneDeep(root_.get(), k);
}

void FDTree::CheckInvariants() const {
  HYFD_CHECK(root_ != nullptr, "FDTree: missing root node");
  CheckNodeInvariants(root_.get(), num_attributes_, 0, max_lhs_size_);
  // Per-RHS antichain: dropping any one LHS attribute must leave no stored
  // generalization (every Y ⊊ X lies below some X \ {b}).
  for (const FD& fd : ToFdSet()) {
    ForEachBit(fd.lhs, [&](int b) {
      HYFD_CHECK(!ContainsFdOrGeneralization(fd.lhs.Without(b), fd.rhs),
                 "FDTree: FD stored below a stored generalization "
                 "(non-minimal)");
    });
  }
}

}  // namespace hyfd
