#include "iqs/multidim/quadtree.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "iqs/util/check.h"

namespace iqs::multidim {

Quadtree::Quadtree(std::span<const Point2> points,
                   std::span<const double> weights, size_t leaf_capacity,
                   int max_depth)
    : leaf_capacity_(leaf_capacity),
      max_depth_(max_depth),
      points_(points.begin(), points.end()) {
  IQS_CHECK(!points_.empty());
  IQS_CHECK(leaf_capacity_ >= 1);
  if (weights.empty()) {
    weights_.assign(points_.size(), 1.0);
  } else {
    IQS_CHECK(weights.size() == points.size());
    weights_.assign(weights.begin(), weights.end());
    // iqs-lint: allow(check-in-loop) -- cold build-path input validation
    for (double w : weights_) IQS_CHECK(std::isfinite(w) && w > 0.0);
  }

  // Root box: the data bounding box expanded to a square (classic PR
  // quadtree; squares keep quadrant aspect ratios stable).
  Rect box{std::numeric_limits<double>::infinity(),
           -std::numeric_limits<double>::infinity(),
           std::numeric_limits<double>::infinity(),
           -std::numeric_limits<double>::infinity()};
  for (const Point2& p : points_) {
    box.x_lo = std::min(box.x_lo, p.x);
    box.x_hi = std::max(box.x_hi, p.x);
    box.y_lo = std::min(box.y_lo, p.y);
    box.y_hi = std::max(box.y_hi, p.y);
  }
  const double side =
      std::max({box.x_hi - box.x_lo, box.y_hi - box.y_lo, 1e-12});
  box.x_hi = box.x_lo + side;
  box.y_hi = box.y_lo + side;

  const uint32_t root = Build(0, points_.size() - 1, box, 0);
  IQS_CHECK(root == 0);
}

uint32_t Quadtree::Build(size_t lo, size_t hi, const Rect& box, int depth) {
  const uint32_t id = static_cast<uint32_t>(nodes_.size());
  nodes_.emplace_back();
  nodes_[id].box = box;
  nodes_[id].lo = static_cast<uint32_t>(lo);
  nodes_[id].hi = static_cast<uint32_t>(hi);
  double weight = 0.0;
  for (size_t i = lo; i <= hi; ++i) weight += weights_[i];
  nodes_[id].weight = weight;

  if (hi - lo + 1 <= leaf_capacity_ || depth >= max_depth_) return id;

  const double cx = (box.x_lo + box.x_hi) / 2.0;
  const double cy = (box.y_lo + box.y_hi) / 2.0;

  // In-place three-way partition into quadrants SW, NW, SE, NE, keeping
  // weights in lockstep with points.
  auto swap_elems = [&](size_t a, size_t b) {
    std::swap(points_[a], points_[b]);
    std::swap(weights_[a], weights_[b]);
  };
  auto partition = [&](size_t from, size_t to_excl, auto pred) -> size_t {
    size_t split = from;
    for (size_t i = from; i < to_excl; ++i) {
      if (pred(points_[i])) {
        swap_elems(i, split);
        ++split;
      }
    }
    return split;
  };
  const size_t x_split = partition(lo, hi + 1,
                                   [&](const Point2& p) { return p.x < cx; });
  const size_t sw_end = partition(lo, x_split,
                                  [&](const Point2& p) { return p.y < cy; });
  const size_t se_end = partition(x_split, hi + 1,
                                  [&](const Point2& p) { return p.y < cy; });

  struct QuadrantRun {
    size_t lo;
    size_t hi_excl;
    Rect box;
  };
  const QuadrantRun runs[4] = {
      {lo, sw_end, {box.x_lo, cx, box.y_lo, cy}},           // SW
      {sw_end, x_split, {box.x_lo, cx, cy, box.y_hi}},      // NW
      {x_split, se_end, {cx, box.x_hi, box.y_lo, cy}},      // SE
      {se_end, hi + 1, {cx, box.x_hi, cy, box.y_hi}},       // NE
  };
  nodes_[id].is_leaf = false;
  for (int quadrant = 0; quadrant < 4; ++quadrant) {
    const QuadrantRun& run = runs[quadrant];
    if (run.lo >= run.hi_excl) continue;
    const uint32_t child = Build(run.lo, run.hi_excl - 1, run.box, depth + 1);
    nodes_[id].children[quadrant] = child;
  }
  return id;
}

void Quadtree::CoverQuery(const Rect& q,
                          std::vector<CoverRange>* cover) const {
  std::vector<uint32_t> stack = {0};
  while (!stack.empty()) {
    const uint32_t id = stack.back();
    stack.pop_back();
    const Node& node = nodes_[id];
    if (!q.Intersects(node.box)) continue;
    if (q.ContainsRect(node.box)) {
      cover->push_back({node.lo, node.hi, node.weight});
      continue;
    }
    if (node.is_leaf) {
      // Boundary leaf: emit qualifying points individually (the leaf holds
      // at most leaf_capacity points).
      for (size_t p = node.lo; p <= node.hi; ++p) {
        if (q.Contains(points_[p])) {
          cover->push_back({p, p, weights_[p]});
        }
      }
      continue;
    }
    for (uint32_t child : node.children) {
      if (child != kNull) stack.push_back(child);
    }
  }
}

void Quadtree::Report(const Rect& q, std::vector<size_t>* out) const {
  std::vector<CoverRange> cover;
  CoverQuery(q, &cover);
  for (const CoverRange& range : cover) {
    for (size_t p = range.lo; p <= range.hi; ++p) out->push_back(p);
  }
}

void QuadtreeSampler::QueryBatch(std::span<const RectBatchQuery> queries,
                                 Rng* rng, ScratchArena* arena,
                                 const BatchOptions& opts,
                                 PointBatchResult* result) const {
  internal::ServeRectBatch(tree_, engine_, queries, rng, arena, opts, result);
}

void QuadtreeSampler::QueryBatch(std::span<const RectBatchQuery> queries,
                                 Rng* rng, ScratchArena* arena,
                                 PointBatchResult* result) const {
  QueryBatch(queries, rng, arena, BatchOptions{}, result);
}

bool QuadtreeSampler::QueryRect(const Rect& q, size_t s, Rng* rng,
                                std::vector<Point2>* out) const {
  std::vector<CoverRange> cover;
  tree_.CoverQuery(q, &cover);
  if (cover.empty()) return false;
  std::vector<size_t> positions;
  positions.reserve(s);
  engine_.Sample(cover, s, rng, &positions);
  out->reserve(out->size() + positions.size());
  for (size_t p : positions) out->push_back(tree_.PointAt(p));
  return true;
}

}  // namespace iqs::multidim
