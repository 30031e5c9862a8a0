// Leaf-oriented balanced binary search tree with subtree weights and
// canonical-node decomposition (paper Section 3.2 and Figure 1).
//
// The tree follows the paper's conventions: height O(log n), one leaf per
// element (identified by its position 0..n-1 in sorted key order), every
// internal node has exactly two children, and each node stores the total
// weight w(u) of the leaves below it. For any position range [a, b] the
// tree yields a canonical cover: O(log n) nodes with disjoint subtrees
// whose leaves are exactly positions a..b.
//
// Layout: nodes are stored in BFS (level) order, so the root is node 0,
// siblings are adjacent, and a node's two children share a cache line more
// often than not. Because children are allocated in pairs, only the left
// child id is stored — the right child is always left + 1 — which packs a
// node into 24 bytes (weight, left, lo, hi). Root-to-leaf descents
// therefore touch a prefix of the array at the top (always cached) and one
// line per level only near the bottom, where SampleLeaves() hides the
// misses with software prefetch across a batch of concurrent descents.
//
// StaticBst is deliberately key-agnostic — it works on positions. Mapping
// real-valued query intervals to position ranges is the job of
// RangeSampler (range_sampler.h), so the same tree drives element-level
// structures and the chunk-level structure of Theorem 3 alike.

#ifndef IQS_RANGE_STATIC_BST_H_
#define IQS_RANGE_STATIC_BST_H_

#include <cstdint>
#include <span>
#include <vector>

#include "iqs/util/check.h"
#include "iqs/util/rng.h"
#include "iqs/util/scratch_arena.h"

namespace iqs {

class StaticBst {
 public:
  using NodeId = uint32_t;
  static constexpr NodeId kNullNode = ~NodeId{0};

  StaticBst() = default;

  // Builds the tree over finite `weights[i] > 0` for leaf positions i. O(n).
  explicit StaticBst(std::span<const double> weights);

  size_t num_leaves() const { return num_leaves_; }
  size_t num_nodes() const { return nodes_.size(); }
  NodeId root() const { return 0; }

  bool IsLeaf(NodeId u) const { return nodes_[u].left == kNullNode; }
  double NodeWeight(NodeId u) const { return nodes_[u].weight; }
  NodeId LeftChild(NodeId u) const { return nodes_[u].left; }
  // Children are allocated as adjacent siblings (BFS layout).
  NodeId RightChild(NodeId u) const {
    const NodeId left = nodes_[u].left;
    return left == kNullNode ? kNullNode : left + 1;
  }
  // Leaf positions below u form the inclusive range [RangeLo, RangeHi].
  size_t RangeLo(NodeId u) const { return nodes_[u].lo; }
  size_t RangeHi(NodeId u) const { return nodes_[u].hi; }
  // For a leaf, the element position it stores.
  size_t LeafPosition(NodeId u) const {
    IQS_DCHECK(IsLeaf(u));
    return nodes_[u].lo;
  }
  // Leaf id for position p (usable as a subtree-query argument).
  NodeId LeafForPosition(size_t p) const { return leaf_of_position_[p]; }

  // Appends the canonical cover of positions [a, b] (inclusive) to `out`:
  // maximal nodes entirely inside the range. |cover| = O(log n);
  // O(log n) time. a <= b < n required.
  void CanonicalCover(size_t a, size_t b, std::vector<NodeId>* out) const;

  // Allocation-free variant: writes the cover into `out` (which must have
  // room for at least MaxCoverSize() nodes) and returns the cover size.
  size_t CanonicalCover(size_t a, size_t b, std::span<NodeId> out) const;

  // Upper bound on any canonical cover's size: two nodes per level.
  size_t MaxCoverSize() const { return 2 * Height() + 2; }

  // Tree sampling (paper Section 3.2): walks down from u, at each internal
  // node choosing a child proportional to its subtree weight. Returns the
  // sampled leaf position. O(height of subtree), fresh randomness per call.
  size_t SampleLeaf(NodeId u, Rng* rng) const;

  // Batched tree sampling: draws out.size() independent leaves below `u`
  // with the same per-leaf distribution as SampleLeaf, writing sampled
  // positions to `out`. The descents run level-synchronously — one pass
  // over all pending lanes per tree level — consuming block randomness
  // (Rng::FillDoubles) and prefetching each lane's next node one level
  // ahead, so the per-level node loads of different lanes overlap instead
  // of serializing on cache misses. Scratch comes from `arena` (caller
  // retains it across calls; this function does not Reset() it).
  void SampleLeaves(NodeId u, Rng* rng, ScratchArena* arena,
                    std::span<size_t> out) const;

  // Generalized grouped descent: each entry of `lanes` holds a start node
  // and is replaced, in place, by the id of a leaf sampled from that
  // node's subtree (per-lane law identical to SampleLeaf). Lanes are
  // independent, so a caller can line up every requested sample of a whole
  // query batch — thousands of lanes — and let their node loads miss the
  // cache concurrently; this is the deepest source of memory-level
  // parallelism on the batched serving path. Returns the number of
  // lane-level descent steps taken (the node loads that dominate the 1-d
  // hot path), which callers feed into QueryStats::nodes_visited.
  size_t DescendToLeaves(std::span<NodeId> lanes, Rng* rng,
                         ScratchArena* arena) const;

  size_t Height() const;

  size_t MemoryBytes() const {
    return nodes_.capacity() * sizeof(Node) +
           leaf_of_position_.capacity() * sizeof(NodeId);
  }

 private:
  // 24 bytes: BFS layout makes `right` redundant (== left + 1).
  struct Node {
    double weight = 0.0;
    NodeId left = kNullNode;
    uint32_t lo = 0;
    uint32_t hi = 0;
  };
  static_assert(sizeof(Node) == 24, "descent loads stay within 24 bytes");

  std::vector<Node> nodes_;
  std::vector<NodeId> leaf_of_position_;
  size_t num_leaves_ = 0;
};

}  // namespace iqs

#endif  // IQS_RANGE_STATIC_BST_H_
