#include "iqs/multidim/kd_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace iqs::multidim {

KdTree::KdTree(std::span<const Point2> points, std::span<const double> weights)
    : points_(points.begin(), points.end()) {
  IQS_CHECK(!points_.empty());
  if (weights.empty()) {
    weights_.assign(points_.size(), 1.0);
  } else {
    IQS_CHECK(weights.size() == points.size());
    weights_.assign(weights.begin(), weights.end());
    // iqs-lint: allow(check-in-loop) -- cold build-path input validation
    for (double w : weights_) IQS_CHECK(std::isfinite(w) && w > 0.0);
  }
  nodes_.reserve(2 * points_.size());
  const uint32_t root = Build(0, points_.size() - 1, 0);
  IQS_CHECK(root == 0);
}

uint32_t KdTree::Build(size_t lo, size_t hi, int depth) {
  const uint32_t id = static_cast<uint32_t>(nodes_.size());
  nodes_.emplace_back();
  // Bounding box and weight of the run.
  Rect box{std::numeric_limits<double>::infinity(),
           -std::numeric_limits<double>::infinity(),
           std::numeric_limits<double>::infinity(),
           -std::numeric_limits<double>::infinity()};
  double weight = 0.0;
  for (size_t i = lo; i <= hi; ++i) {
    box.x_lo = std::min(box.x_lo, points_[i].x);
    box.x_hi = std::max(box.x_hi, points_[i].x);
    box.y_lo = std::min(box.y_lo, points_[i].y);
    box.y_hi = std::max(box.y_hi, points_[i].y);
    weight += weights_[i];
  }
  nodes_[id].box = box;
  nodes_[id].weight = weight;
  nodes_[id].lo = static_cast<uint32_t>(lo);
  nodes_[id].hi = static_cast<uint32_t>(hi);
  if (lo == hi) return id;

  // Median split on the alternating axis, reordering points and weights in
  // lockstep via an index permutation of the run.
  const size_t mid = lo + (hi - lo) / 2;
  std::vector<uint32_t> order(hi - lo + 1);
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<uint32_t>(lo + i);
  }
  const bool split_x = (depth % 2) == 0;
  std::nth_element(order.begin(), order.begin() + (mid - lo), order.end(),
                   [&](uint32_t a, uint32_t b) {
                     return split_x ? points_[a].x < points_[b].x
                                    : points_[a].y < points_[b].y;
                   });
  // Apply the permutation to the run.
  std::vector<Point2> tmp_points(order.size());
  std::vector<double> tmp_weights(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    tmp_points[i] = points_[order[i]];
    tmp_weights[i] = weights_[order[i]];
  }
  std::copy(tmp_points.begin(), tmp_points.end(), points_.begin() + lo);
  std::copy(tmp_weights.begin(), tmp_weights.end(), weights_.begin() + lo);

  const uint32_t left = Build(lo, mid, depth + 1);
  const uint32_t right = Build(mid + 1, hi, depth + 1);
  nodes_[id].left = left;
  nodes_[id].right = right;
  return id;
}

void KdTree::CoverQuery(const Rect& q, std::vector<CoverRange>* cover) const {
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
    if (node.left == kNull) {  // boundary leaf
      if (q.Contains(points_[node.lo])) {
        cover->push_back({node.lo, node.hi, weights_[node.lo]});
      }
      continue;
    }
    stack.push_back(node.left);
    stack.push_back(node.right);
  }
}

void KdTree::Report(const Rect& q, std::vector<size_t>* out) const {
  std::vector<CoverRange> cover;
  CoverQuery(q, &cover);
  for (const CoverRange& range : cover) {
    for (size_t p = range.lo; p <= range.hi; ++p) out->push_back(p);
  }
}

void KdTree::CoverDisk(const Point2& center, double radius,
                       std::vector<CoverRange>* cover) const {
  const double r2 = radius * radius;
  std::vector<uint32_t> stack = {0};
  while (!stack.empty()) {
    const uint32_t id = stack.back();
    stack.pop_back();
    const Node& node = nodes_[id];
    if (node.box.MinSquaredDistance(center) > r2) continue;
    if (node.box.MaxSquaredDistance(center) <= r2) {
      cover->push_back({node.lo, node.hi, node.weight});
      continue;
    }
    if (node.left == kNull) {
      if (SquaredDistance(points_[node.lo], center) <= r2) {
        cover->push_back({node.lo, node.hi, weights_[node.lo]});
      }
      continue;
    }
    stack.push_back(node.left);
    stack.push_back(node.right);
  }
}

void KdTree::CoverRegion(
    const std::function<bool(const Rect&)>& contains_box,
    const std::function<bool(const Rect&)>& intersects_box,
    const std::function<bool(const Point2&)>& contains_point,
    std::vector<CoverRange>* cover) const {
  std::vector<uint32_t> stack = {0};
  while (!stack.empty()) {
    const uint32_t id = stack.back();
    stack.pop_back();
    const Node& node = nodes_[id];
    if (!intersects_box(node.box)) continue;
    if (contains_box(node.box)) {
      cover->push_back({node.lo, node.hi, node.weight});
      continue;
    }
    if (node.left == kNull) {
      if (contains_point(points_[node.lo])) {
        cover->push_back({node.lo, node.hi, weights_[node.lo]});
      }
      continue;
    }
    stack.push_back(node.left);
    stack.push_back(node.right);
  }
}

void KdTree::ApproxCoverDisk(const Point2& center, double radius,
                             double slack,
                             std::vector<CoverRange>* cover) const {
  IQS_CHECK(slack > 0.0);
  const double r2 = radius * radius;
  const double max_diag2 = slack * slack * r2;
  std::vector<uint32_t> stack = {0};
  while (!stack.empty()) {
    const uint32_t id = stack.back();
    stack.pop_back();
    const Node& node = nodes_[id];
    if (node.box.MinSquaredDistance(center) > r2) continue;
    const double dx = node.box.x_hi - node.box.x_lo;
    const double dy = node.box.y_hi - node.box.y_lo;
    const bool small_enough = dx * dx + dy * dy <= max_diag2;
    if (node.box.MaxSquaredDistance(center) <= r2 || small_enough ||
        node.left == kNull) {
      cover->push_back({node.lo, node.hi, node.weight});
      continue;
    }
    stack.push_back(node.left);
    stack.push_back(node.right);
  }
}

}  // namespace iqs::multidim
