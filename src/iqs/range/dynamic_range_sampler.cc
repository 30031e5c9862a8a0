#include "iqs/range/dynamic_range_sampler.h"

#include "iqs/alias/alias_table.h"
#include "iqs/util/check.h"

namespace iqs {

void DynamicRangeSampler::Pull(uint32_t v) {
  Node& node = nodes_[v];
  node.subtree_weight = node.weight;
  if (node.left != kNull) node.subtree_weight += nodes_[node.left].subtree_weight;
  if (node.right != kNull) {
    node.subtree_weight += nodes_[node.right].subtree_weight;
  }
}

uint32_t DynamicRangeSampler::NewNode(double key, double weight) {
  uint32_t v;
  if (!free_list_.empty()) {
    v = free_list_.back();
    free_list_.pop_back();
    nodes_[v] = Node{};
  } else {
    v = static_cast<uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  nodes_[v].key = key;
  nodes_[v].weight = weight;
  nodes_[v].subtree_weight = weight;
  nodes_[v].priority = priority_rng_.Next64();
  return v;
}

void DynamicRangeSampler::FreeNode(uint32_t v) { free_list_.push_back(v); }

void DynamicRangeSampler::Split(uint32_t v, double key, bool before,
                                uint32_t* lo_out, uint32_t* hi_out) {
  if (v == kNull) {
    *lo_out = kNull;
    *hi_out = kNull;
    return;
  }
  Node& node = nodes_[v];
  const bool goes_low = before ? node.key < key : node.key <= key;
  if (goes_low) {
    uint32_t mid_lo;
    uint32_t mid_hi;
    Split(node.right, key, before, &mid_lo, &mid_hi);
    node.right = mid_lo;
    Pull(v);
    *lo_out = v;
    *hi_out = mid_hi;
  } else {
    uint32_t mid_lo;
    uint32_t mid_hi;
    Split(node.left, key, before, &mid_lo, &mid_hi);
    node.left = mid_hi;
    Pull(v);
    *lo_out = mid_lo;
    *hi_out = v;
  }
}

uint32_t DynamicRangeSampler::Merge(uint32_t a, uint32_t b) {
  if (a == kNull) return b;
  if (b == kNull) return a;
  if (nodes_[a].priority >= nodes_[b].priority) {
    nodes_[a].right = Merge(nodes_[a].right, b);
    Pull(a);
    return a;
  }
  nodes_[b].left = Merge(a, nodes_[b].left);
  Pull(b);
  return b;
}

void DynamicRangeSampler::Insert(double key, double weight) {
  IQS_CHECK(weight > 0.0);
  uint32_t lo;
  uint32_t hi;
  Split(root_, key, /*before=*/true, &lo, &hi);
  root_ = Merge(Merge(lo, NewNode(key, weight)), hi);
  ++size_;
}

bool DynamicRangeSampler::Delete(double key) {
  uint32_t lo;
  uint32_t mid;
  uint32_t hi;
  Split(root_, key, /*before=*/true, &lo, &mid);
  Split(mid, key, /*before=*/false, &mid, &hi);
  bool deleted = false;
  if (mid != kNull) {
    // `mid` holds exactly the elements with this key; drop its root.
    const uint32_t removed = mid;
    mid = Merge(nodes_[mid].left, nodes_[mid].right);
    FreeNode(removed);
    --size_;
    deleted = true;
  }
  root_ = Merge(Merge(lo, mid), hi);
  return deleted;
}

bool DynamicRangeSampler::SetWeight(double key, double weight) {
  IQS_CHECK(weight > 0.0);
  // Iterative descent recording the path for weight re-summation.
  uint32_t path[128];
  size_t depth = 0;
  uint32_t v = root_;
  while (v != kNull) {
    IQS_DCHECK(depth < 128);
    path[depth++] = v;
    if (key < nodes_[v].key) {
      v = nodes_[v].left;
    } else if (key > nodes_[v].key) {
      v = nodes_[v].right;
    } else {
      nodes_[v].weight = weight;
      while (depth > 0) Pull(path[--depth]);
      return true;
    }
  }
  return false;
}

double DynamicRangeSampler::SampleSubtree(uint32_t v, Rng* rng) const {
  while (true) {
    const Node& node = nodes_[v];
    double target = rng->NextDouble() * node.subtree_weight;
    if (node.left != kNull) {
      if (target < nodes_[node.left].subtree_weight) {
        v = node.left;
        continue;
      }
      target -= nodes_[node.left].subtree_weight;
    }
    if (target < node.weight || node.right == kNull) return node.key;
    v = node.right;
  }
}

bool DynamicRangeSampler::Query(double lo, double hi, size_t s, Rng* rng,
                                std::vector<double>* out) const {
  if (!(lo <= hi) || root_ == kNull) return false;
  // Canonical decomposition without mutating the treap: descend to the
  // split node, then peel off maximal subtrees along the two boundary
  // paths. Pieces are whole subtrees (sampled top-down) or single nodes.
  struct Piece {
    uint32_t node;
    bool whole_subtree;
  };
  std::vector<Piece> pieces;
  std::vector<double> piece_weights;
  auto add_node = [&](uint32_t v) {
    pieces.push_back({v, false});
    piece_weights.push_back(nodes_[v].weight);
  };
  auto add_subtree = [&](uint32_t v) {
    if (v == kNull) return;
    pieces.push_back({v, true});
    piece_weights.push_back(nodes_[v].subtree_weight);
  };

  // Find the topmost node whose key lies in [lo, hi].
  uint32_t v = root_;
  while (v != kNull &&
         (nodes_[v].key < lo || nodes_[v].key > hi)) {
    v = nodes_[v].key < lo ? nodes_[v].right : nodes_[v].left;
  }
  if (v == kNull) return false;
  add_node(v);

  // Left boundary: in v's left subtree, keep everything with key >= lo.
  uint32_t w = nodes_[v].left;
  while (w != kNull) {
    if (nodes_[w].key >= lo) {
      add_node(w);
      add_subtree(nodes_[w].right);
      w = nodes_[w].left;
    } else {
      w = nodes_[w].right;
    }
  }
  // Right boundary: in v's right subtree, keep everything with key <= hi.
  w = nodes_[v].right;
  while (w != kNull) {
    if (nodes_[w].key <= hi) {
      add_node(w);
      add_subtree(nodes_[w].left);
      w = nodes_[w].right;
    } else {
      w = nodes_[w].left;
    }
  }

  if (s == 0) return true;
  AliasTable alias(piece_weights);
  out->reserve(out->size() + s);
  for (size_t i = 0; i < s; ++i) {
    const Piece& piece = pieces[alias.Sample(rng)];
    out->push_back(piece.whole_subtree ? SampleSubtree(piece.node, rng)
                                       : nodes_[piece.node].key);
  }
  return true;
}

double DynamicRangeSampler::RangeWeight(double lo, double hi) const {
  if (!(lo <= hi) || root_ == kNull) return 0.0;
  double total = 0.0;
  uint32_t v = root_;
  while (v != kNull && (nodes_[v].key < lo || nodes_[v].key > hi)) {
    v = nodes_[v].key < lo ? nodes_[v].right : nodes_[v].left;
  }
  if (v == kNull) return 0.0;
  total += nodes_[v].weight;
  uint32_t w = nodes_[v].left;
  while (w != kNull) {
    if (nodes_[w].key >= lo) {
      total += nodes_[w].weight;
      if (nodes_[w].right != kNull) {
        total += nodes_[nodes_[w].right].subtree_weight;
      }
      w = nodes_[w].left;
    } else {
      w = nodes_[w].right;
    }
  }
  w = nodes_[v].right;
  while (w != kNull) {
    if (nodes_[w].key <= hi) {
      total += nodes_[w].weight;
      if (nodes_[w].left != kNull) {
        total += nodes_[nodes_[w].left].subtree_weight;
      }
      w = nodes_[w].right;
    } else {
      w = nodes_[w].left;
    }
  }
  return total;
}

}  // namespace iqs
