#include "iqs/range/static_bst.h"

#include <cmath>
#include <cstddef>
#include <limits>

namespace iqs {

StaticBst::StaticBst(std::span<const double> weights)
    : num_leaves_(weights.size()) {
  IQS_CHECK(num_leaves_ > 0);
  IQS_CHECK(num_leaves_ < std::numeric_limits<uint32_t>::max() / 2);
  const size_t num_nodes = 2 * num_leaves_ - 1;
  nodes_.resize(num_nodes);
  leaf_of_position_.resize(num_leaves_);

  // BFS construction: ids are assigned in level order and the two children
  // of a node are allocated adjacently, so right == left + 1 everywhere.
  // The nodes_ array doubles as the BFS queue — [lo, hi] of queued nodes
  // are written when their parent is processed.
  nodes_[0].lo = 0;
  nodes_[0].hi = static_cast<uint32_t>(num_leaves_ - 1);
  size_t tail = 1;
  for (size_t u = 0; u < num_nodes; ++u) {
    const uint32_t lo = nodes_[u].lo;
    const uint32_t hi = nodes_[u].hi;
    if (lo == hi) {
      // iqs-lint: allow(check-in-loop) -- cold build-path input validation
      IQS_CHECK(std::isfinite(weights[lo]) && weights[lo] > 0.0);
      leaf_of_position_[lo] = static_cast<NodeId>(u);
      continue;
    }
    const uint32_t mid = lo + (hi - lo) / 2;
    nodes_[u].left = static_cast<NodeId>(tail);
    nodes_[tail].lo = lo;
    nodes_[tail].hi = mid;
    nodes_[tail + 1].lo = mid + 1;
    nodes_[tail + 1].hi = hi;
    tail += 2;
  }
  IQS_CHECK(tail == num_nodes);

  // Subtree weights bottom-up; BFS order guarantees children have larger
  // ids than their parent.
  for (size_t u = num_nodes; u-- > 0;) {
    const NodeId left = nodes_[u].left;
    nodes_[u].weight = left == kNullNode
                           ? weights[nodes_[u].lo]
                           : nodes_[left].weight + nodes_[left + 1].weight;
  }
  // Finite leaves can still overflow the root's sum.
  IQS_CHECK(std::isfinite(nodes_[0].weight));
}

void StaticBst::CanonicalCover(size_t a, size_t b,
                               std::vector<NodeId>* out) const {
  const size_t base = out->size();
  out->resize(base + MaxCoverSize());
  const size_t count =
      CanonicalCover(a, b, std::span<NodeId>(*out).subspan(base));
  out->resize(base + count);
}

size_t StaticBst::CanonicalCover(size_t a, size_t b,
                                 std::span<NodeId> out) const {
  IQS_CHECK(a <= b && b < num_leaves_);
  // Iterative descent with an explicit stack; each node either lies fully
  // inside [a, b] (canonical), fully outside (pruned), or straddles a
  // boundary (recurse). Only nodes on the two root-to-boundary paths
  // straddle, so the walk touches O(log n) nodes.
  NodeId stack[128];
  size_t top = 0;
  size_t count = 0;
  stack[top++] = root();
  while (top > 0) {
    const NodeId u = stack[--top];
    const Node& node = nodes_[u];
    if (node.lo > b || node.hi < a) continue;
    if (a <= node.lo && node.hi <= b) {
      IQS_DCHECK(count < out.size());
      out[count++] = u;
      continue;
    }
    IQS_DCHECK(top + 2 <= 128);
    // Push right first so covers come out in left-to-right position order.
    stack[top++] = node.left + 1;
    stack[top++] = node.left;
  }
  return count;
}

size_t StaticBst::SampleLeaf(NodeId u, Rng* rng) const {
  const Node* nodes = nodes_.data();
  while (nodes[u].left != kNullNode) {
    const Node& node = nodes[u];
    const double left_weight = nodes[node.left].weight;
    u = rng->NextDouble() * node.weight < left_weight ? node.left
                                                      : node.left + 1;
  }
  return nodes[u].lo;
}

void StaticBst::SampleLeaves(NodeId u, Rng* rng, ScratchArena* arena,
                             std::span<size_t> out) const {
  const size_t count = out.size();
  if (count == 0) return;
  const std::span<NodeId> lanes = arena->Alloc<NodeId>(count);
  for (size_t i = 0; i < count; ++i) lanes[i] = u;
  DescendToLeaves(lanes, rng, arena);
  for (size_t i = 0; i < count; ++i) out[i] = nodes_[lanes[i]].lo;
}

size_t StaticBst::DescendToLeaves(std::span<NodeId> lanes, Rng* rng,
                                  ScratchArena* arena) const {
  if (lanes.empty()) return 0;
  size_t steps = 0;
  const Node* nodes = nodes_.data();
  // Level-synchronous descent: every pass advances all still-internal
  // lanes one level, drawing the pass's randomness in one block and
  // prefetching each lane's next node so the node loads of the following
  // pass miss the cache concurrently rather than one at a time. Lanes are
  // processed in fixed-size chunks — memory-level parallelism saturates
  // well below kLaneBlock, and the chunk bounds the scratch footprint.
  constexpr size_t kLaneBlock = 2048;
  const std::span<double> rnd =
      arena->Alloc<double>(std::min(lanes.size(), kLaneBlock));
  for (size_t start = 0; start < lanes.size(); start += kLaneBlock) {
    const std::span<NodeId> block =
        lanes.subspan(start, std::min(kLaneBlock, lanes.size() - start));
    bool any_internal = true;
    while (any_internal) {
      any_internal = false;
      steps += block.size();
      rng->FillDoubles(rnd.first(block.size()));
      for (size_t i = 0; i < block.size(); ++i) {
        const Node& node = nodes[block[i]];
        if (node.left == kNullNode) continue;
        const NodeId next =
            rnd[i] * node.weight < nodes[node.left].weight ? node.left
                                                           : node.left + 1;
        __builtin_prefetch(&nodes[next]);
        block[i] = next;
        any_internal = true;
      }
    }
  }
  return steps;
}

size_t StaticBst::Height() const {
  // The tree is weight-agnostic balanced (midpoint splits), so height is
  // ceil(log2 n); compute it by walking the leftmost path.
  size_t height = 0;
  NodeId u = root();
  while (!IsLeaf(u)) {
    u = nodes_[u].left;
    ++height;
  }
  return height;
}

}  // namespace iqs
