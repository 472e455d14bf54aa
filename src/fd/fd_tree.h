#ifndef HYFD_FD_FD_TREE_H_
#define HYFD_FD_FD_TREE_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "fd/fd_set.h"
#include "util/attribute_set.h"

namespace hyfd {

/// Prefix tree over FD left-hand sides (paper §7, after Flach & Savnik).
///
/// A path root → n1 → n2 (edges labeled with ascending attribute indexes)
/// spells an LHS; the node's `fds` bitset marks the RHS attributes A for
/// which LHS → A is stored. Every node additionally keeps `rhs_attrs`, a
/// superset of all RHS attributes stored in its subtree, which prunes
/// generalization lookups — the operation the Inductor and Validator hammer.
///
/// The tree enforces an optional maximum LHS size (set by the Memory
/// Guardian, paper §9): FDs with longer LHSs are rejected on add and pruned
/// retroactively when the cap shrinks.
class FDTree {
 public:
  struct Node {
    explicit Node(int num_attributes)
        : fds(num_attributes),
          rhs_attrs(num_attributes),
          confirmed(num_attributes) {}

    /// RHS attributes whose FD ends at this node.
    AttributeSet fds;
    /// Superset of RHS attributes stored anywhere in this subtree.
    AttributeSet rhs_attrs;
    /// Subset of `fds` that a completed Validator pass proved to hold on the
    /// data (vs. merely candidate after Inductor specialization). The
    /// incremental session uses this to route previously-proven FDs through
    /// the cheap restricted re-check (only clusters touched by new rows)
    /// while fresh candidates get the full check. Invariant: confirmed ⊆ fds.
    AttributeSet confirmed;
    /// Children indexed by attribute; allocated lazily.
    std::vector<std::unique_ptr<Node>> children;

    Node* Child(int attr) const {
      if (children.empty()) return nullptr;
      return children[static_cast<size_t>(attr)].get();
    }
  };

  /// A node paired with the LHS its path spells — what GetLevel() hands to
  /// the Validator.
  struct LevelEntry {
    Node* node;
    AttributeSet lhs;
  };

  explicit FDTree(int num_attributes);

  int num_attributes() const { return num_attributes_; }
  Node* root() { return root_.get(); }
  const Node* root() const { return root_.get(); }

  /// Adds the most general FDs ∅ → A for every attribute A (Inductor init).
  void AddMostGeneralFds();

  /// Adds LHS → rhs. Returns false if it was already present or exceeds the
  /// LHS size cap. Does not check minimality.
  bool AddFd(const AttributeSet& lhs, int rhs);

  /// Adds LHS → rhs and reports whether a *new tree node* was created for it
  /// (the Validator must enqueue new nodes into the next level). Output
  /// `added` says whether the FD itself was new.
  Node* AddFdAndGetIfNewNode(const AttributeSet& lhs, int rhs, bool* added);

  /// Removes LHS → rhs if present (exact match). Returns true iff the
  /// removed FD was confirmed (Node::confirmed) — a previously-proven FD
  /// that the caller just invalidated.
  bool RemoveFd(const AttributeSet& lhs, int rhs);

  bool ContainsFd(const AttributeSet& lhs, int rhs) const;

  /// True iff the tree stores LHS → rhs or any generalization X → rhs with
  /// X ⊆ LHS. This is the minimality check of Inductor and Validator.
  bool ContainsFdOrGeneralization(const AttributeSet& lhs, int rhs) const;

  /// ContainsFdOrGeneralization restricted to the generalizations X ⊆ LHS
  /// with `must` ∈ X; `lhs` must contain `must`. This is the minimality
  /// check of a specialization LHS = Y ∪ {must} of a just-removed Y → rhs:
  /// in a per-RHS antichain every other generalization lies inside Y, and
  /// no proper subset of Y can be stored, so the restricted answer equals
  /// the full one. Audit builds assert that equality, so callers must hold
  /// that precondition.
  bool ContainsFdOrGeneralizationWith(const AttributeSet& lhs, int rhs,
                                      int must) const;

  /// ContainsFdOrGeneralizationWith for every RHS of `rhss` in one walk:
  /// returns the subset of `rhss` that has a stored generalization X ⊆ LHS
  /// with `must` ∈ X. Same precondition, for each RHS.
  AttributeSet FindGeneralizedRhssWith(const AttributeSet& lhs,
                                       const AttributeSet& rhss,
                                       int must) const;

  /// One stored LHS and the RHSs it holds within a lookup's RHS mask.
  struct LhsGroup {
    AttributeSet lhs;
    AttributeSet rhss;
  };

  /// Walks the tree once and returns, in depth-first order, every stored
  /// LHS X ⊆ `lhs` with fds(X) ∩ `rhss` ≠ ∅, grouped with those RHSs. For a
  /// non-FD's agree set and its complement these are exactly the FDs the
  /// non-FD invalidates — the Inductor's specialization input.
  std::vector<LhsGroup> GetGeneralizationGroups(const AttributeSet& lhs,
                                                const AttributeSet& rhss) const;

  /// All nodes whose depth (LHS size) equals `level`, with their LHS.
  std::vector<LevelEntry> GetLevel(int level);

  /// All stored FDs in canonical order. Depth equals LHS size, so the walk
  /// buckets FDs by (rhs, depth) and only sorts within each bucket.
  FDSet ToFdSet() const;

  size_t CountFds() const;
  /// FDs marked validated-on-data (Node::confirmed bits).
  size_t CountConfirmedFds() const;
  /// Marks every stored FD as validated-on-data (confirmed = fds everywhere);
  /// used when seeding an incremental session from a completed discovery.
  void ConfirmAll();

  /// True iff the tree stores a *confirmed* LHS → rhs or confirmed
  /// generalization X → rhs with X ⊆ LHS.
  bool ContainsConfirmedFdOrGeneralization(const AttributeSet& lhs,
                                           int rhs) const;

  /// Transfers proof obligations after a delete-driven cover rebuild
  /// (IncrementalHyFd): marks each stored FD LHS → rhs confirmed iff
  /// `proven` holds a confirmed generalization X → rhs with X ⊆ LHS. Sound
  /// because deleting rows can only remove violating pairs — a proven
  /// generalization still implies the (weaker) specialization on the
  /// shrunken data; violations introduced by *inserted* rows are caught by
  /// the Validator's restricted re-check over touched clusters.
  void ConfirmFrom(const FDTree& proven);

  /// The stored-but-unconfirmed FDs — after ConfirmFrom() these are exactly
  /// the downward (generalization) candidates the delete repair loop must
  /// validate from scratch, since no surviving proof covers them.
  std::vector<FD> CollectGeneralizationCandidates() const;
  size_t CountNodes() const;
  /// Depth of the deepest node (longest stored LHS).
  int Depth() const;
  /// Approximate heap footprint (guardian / Table 3 accounting).
  size_t MemoryBytes() const;

  int max_lhs_size() const { return max_lhs_size_; }
  /// Caps the LHS size: prunes all FDs with |LHS| > k and rejects longer
  /// adds from now on. k < 0 means unlimited.
  void SetMaxLhsSize(int k);

  /// Deep structural audit (paper §5.3 / §7): every node's bitsets range
  /// over num_attributes(), child slots are either absent or one per
  /// attribute, `rhs_attrs` covers the node's own `fds` and every child's
  /// `rhs_attrs` (it may over-approximate after RemoveFd, never
  /// under-approximate), no node is deeper than the Guardian's LHS cap, and
  /// the stored FDs form a per-RHS antichain: no stored X → A has a stored
  /// Y ⊊ X with Y → A, on the same path or not. The Inductor's and
  /// Validator's guarded specializations maintain that property, and
  /// ContainsFdOrGeneralizationWith relies on it. Throws ContractViolation
  /// on the first violation. Invoked after each Inductor/Validator phase in
  /// audit builds (-DHYFD_AUDIT=ON); callable from any build (but only
  /// meaningful for trees populated through guarded adds — tests may legally
  /// store non-minimal FDs).
  void CheckInvariants() const;

 private:
  Node* GetOrCreateChild(Node* node, int attr);

  int num_attributes_;
  int max_lhs_size_ = -1;
  std::unique_ptr<Node> root_;
};

}  // namespace hyfd

#endif  // HYFD_FD_FD_TREE_H_
