#include "iqs/multidim/range_tree.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "iqs/cover/cover_enumeration.h"
#include "iqs/sampling/multinomial.h"
#include "iqs/util/check.h"

namespace iqs::multidim {

RangeTree2DSampler::RangeTree2DSampler(std::span<const Point2> points,
                                       std::span<const double> weights,
                                       size_t leaf_size)
    : leaf_size_(std::max<size_t>(leaf_size, 1)) {
  IQS_CHECK(!points.empty());
  const size_t n = points.size();
  IQS_CHECK(n <= UINT32_MAX);  // ids and y-runs are uint32_t
  IQS_CHECK(weights.empty() || weights.size() == n);
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return points[a].x < points[b].x ||
           (points[a].x == points[b].x && points[a].y < points[b].y);
  });
  points_by_x_.resize(n);
  weights_by_x_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    points_by_x_[i] = points[order[i]];
    weights_by_x_[i] = weights.empty() ? 1.0 : weights[order[i]];
    // iqs-lint: allow(check-in-loop) -- cold build-path input validation
    IQS_CHECK(std::isfinite(weights_by_x_[i]) && weights_by_x_[i] > 0.0);
  }
  nodes_.reserve(4 * (n / leaf_size_ + 2));
  const uint32_t root = Build(0, n - 1);
  IQS_CHECK(root == 0);
  // With fractional cascading only the root's y VALUES are searched; the
  // other nodes navigate by bridges, so their value arrays can be freed.
  for (size_t id = 1; id < nodes_.size(); ++id) {
    nodes_[id].y_sorted_ys.clear();
    nodes_[id].y_sorted_ys.shrink_to_fit();
  }
}

uint32_t RangeTree2DSampler::Build(size_t lo, size_t hi) {
  const uint32_t id = static_cast<uint32_t>(nodes_.size());
  nodes_.emplace_back();
  // NOTE: nodes_ may reallocate during child builds; never hold a Node&
  // across a recursive call.
  nodes_[id].x_lo = static_cast<uint32_t>(lo);
  nodes_[id].x_hi = static_cast<uint32_t>(hi);

  if (hi - lo + 1 > leaf_size_) {
    const size_t mid = lo + (hi - lo) / 2;
    const uint32_t left = Build(lo, mid);
    const uint32_t right = Build(mid + 1, hi);
    nodes_[id].left = left;
    nodes_[id].right = right;
  }

  Node& node = nodes_[id];
  // Secondary structure: ids below this node sorted by y. Internal nodes
  // merge their children's y-orders (mergesort style, O(n log n) total).
  if (node.left == kNull) {
    node.ids_by_y.resize(hi - lo + 1);
    std::iota(node.ids_by_y.begin(), node.ids_by_y.end(),
              static_cast<uint32_t>(lo));
    std::sort(node.ids_by_y.begin(), node.ids_by_y.end(),
              [&](uint32_t a, uint32_t b) {
                return points_by_x_[a].y < points_by_x_[b].y;
              });
  } else {
    // Manual merge so the fractional-cascading bridge can be recorded:
    // bridge_left[i] = left-child entries among the first i merged ones.
    const auto& left_ids = nodes_[node.left].ids_by_y;
    const auto& right_ids = nodes_[node.right].ids_by_y;
    node.ids_by_y.reserve(left_ids.size() + right_ids.size());
    node.bridge_left.reserve(left_ids.size() + right_ids.size() + 1);
    node.bridge_left.push_back(0);
    size_t li = 0;
    size_t ri = 0;
    while (li < left_ids.size() || ri < right_ids.size()) {
      const bool take_left =
          ri == right_ids.size() ||
          (li < left_ids.size() &&
           points_by_x_[left_ids[li]].y <= points_by_x_[right_ids[ri]].y);
      node.ids_by_y.push_back(take_left ? left_ids[li++] : right_ids[ri++]);
      node.bridge_left.push_back(static_cast<uint32_t>(li));
    }
  }

  const size_t m = node.ids_by_y.size();
  // Sized before weight_prefix: after assign(m + 1) gcc 12 considers
  // m == SIZE_MAX and warns (-Walloc-size-larger-than) on this one.
  std::vector<double> y_weights(m);
  node.y_sorted_ys.resize(m);
  node.weight_prefix.assign(m + 1, 0.0);
  for (size_t i = 0; i < m; ++i) {
    node.y_sorted_ys[i] = points_by_x_[node.ids_by_y[i]].y;
    y_weights[i] = weights_by_x_[node.ids_by_y[i]];
    node.weight_prefix[i + 1] = node.weight_prefix[i] + y_weights[i];
  }
  node.sampler = std::make_unique<ChunkedRangeSampler>(y_weights);
  return id;
}

void RangeTree2DSampler::CollectPieces(const Rect& q, size_t a, size_t b,
                                       std::vector<Piece>* pieces) const {
  // ONE binary search at the root, then O(1) bridge arithmetic per node
  // (fractional cascading, paper footnote 5). [ya, yb) is half-open in
  // the current node's merged y-order.
  const Node& root_node = nodes_[0];
  const auto first = std::lower_bound(root_node.y_sorted_ys.begin(),
                                      root_node.y_sorted_ys.end(), q.y_lo);
  const auto last =
      std::upper_bound(first, root_node.y_sorted_ys.end(), q.y_hi);
  if (first == last) return;

  struct Frame {
    uint32_t id;
    uint32_t ya;
    uint32_t yb;  // half-open
  };
  // Depth-first with both children pushed per level holds at most
  // depth + 1 frames, and a balanced tree over < 2^32 points is at most
  // 33 levels deep — a fixed stack, so the descent never allocates.
  constexpr size_t kMaxFrames = 64;
  Frame stack[kMaxFrames];
  size_t top = 0;
  stack[top++] = {
      0, static_cast<uint32_t>(first - root_node.y_sorted_ys.begin()),
      static_cast<uint32_t>(last - root_node.y_sorted_ys.begin())};
  while (top > 0) {
    const Frame frame = stack[--top];
    if (frame.ya >= frame.yb) continue;
    const Node& node = nodes_[frame.id];
    if (node.x_lo > b || node.x_hi < a) continue;
    if (a <= node.x_lo && node.x_hi <= b) {
      pieces->push_back({frame.id, frame.ya, frame.yb - 1,
                         node.weight_prefix[frame.yb] -
                             node.weight_prefix[frame.ya]});
      continue;
    }
    if (node.left == kNull) {
      // Boundary leaf: the y-index range already restricts y; emit the
      // points whose x-position also qualifies as singleton pieces.
      for (uint32_t y_pos = frame.ya; y_pos < frame.yb; ++y_pos) {
        const uint32_t pid = node.ids_by_y[y_pos];
        if (pid < a || pid > b) continue;
        pieces->push_back({frame.id, y_pos, y_pos, weights_by_x_[pid]});
      }
      continue;
    }
    // Bridge the y-range into both children.
    const uint32_t left_ya = node.bridge_left[frame.ya];
    const uint32_t left_yb = node.bridge_left[frame.yb];
    IQS_DCHECK(top + 2 <= kMaxFrames);
    stack[top++] = {node.left, left_ya, left_yb};
    stack[top++] = {node.right, frame.ya - left_ya, frame.yb - left_yb};
  }
}

void RangeTree2DSampler::EnumeratePieces(const Rect& q,
                                         std::vector<Piece>* pieces) const {
  size_t a = 0;
  size_t b = 0;
  if (ResolveX(q, &a, &b)) CollectPieces(q, a, b, pieces);
}

bool RangeTree2DSampler::ResolveX(const Rect& q, size_t* a, size_t* b) const {
  // x-range in x-sorted positions.
  auto x_key = [&](size_t i) { return points_by_x_[i].x; };
  size_t lo = 0;
  size_t hi = points_by_x_.size();
  // lower_bound for q.x_lo over positions.
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (x_key(mid) < q.x_lo) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  *a = lo;
  size_t lo2 = lo;
  size_t hi2 = points_by_x_.size();
  while (lo2 < hi2) {
    const size_t mid = (lo2 + hi2) / 2;
    if (x_key(mid) <= q.x_hi) {
      lo2 = mid + 1;
    } else {
      hi2 = mid;
    }
  }
  if (*a >= lo2) return false;  // empty x-range
  *b = lo2 - 1;
  return true;
}

bool RangeTree2DSampler::QueryRect(const Rect& q, size_t s, Rng* rng,
                                   std::vector<Point2>* out) const {
  std::vector<Piece> pieces;
  EnumeratePieces(q, &pieces);
  if (pieces.empty()) return false;
  if (s == 0) return true;

  std::vector<double> piece_weights;
  piece_weights.reserve(pieces.size());
  for (const Piece& piece : pieces) piece_weights.push_back(piece.weight);
  const std::vector<uint32_t> counts = MultinomialSplit(piece_weights, s, rng);

  out->reserve(out->size() + s);
  std::vector<size_t> positions;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (counts[i] == 0) continue;
    const Piece& piece = pieces[i];
    const Node& node = nodes_[piece.node];
    positions.clear();
    node.sampler->QueryPositions(piece.lo, piece.hi, counts[i], rng,
                                 &positions);
    for (size_t y_pos : positions) {
      out->push_back(points_by_x_[node.ids_by_y[y_pos]]);
    }
  }
  return true;
}

void RangeTree2DSampler::QueryBatch(std::span<const RectBatchQuery> queries,
                                    Rng* rng, ScratchArena* arena,
                                    PointBatchResult* result) const {
  QueryBatch(queries, rng, arena, BatchOptions{}, result);
}

void RangeTree2DSampler::QueryBatch(std::span<const RectBatchQuery> queries,
                                    Rng* rng, ScratchArena* arena,
                                    const BatchOptions& opts,
                                    PointBatchResult* result) const {
  // Parallel mode enumerates the covers on the pool too (the descent is
  // most of a batch at small s); the plan is the same either way.
  std::optional<ScopedPool> scoped_pool;
  if (!opts.sequential()) scoped_pool.emplace(opts);
  ServePieceBatch<Piece>(
      queries, scoped_pool ? scoped_pool->get() : nullptr,
      [this](const RectBatchQuery& query, std::vector<Piece>* out) {
        EnumeratePieces(query.rect, out);
      },
      // One run per secondary node: every piece in the node's y-structure,
      // across all queries, rides one chunked batched call.
      [this](const Piece& piece) {
        return PieceRun<ChunkedRangeSampler>{piece.node,
                                             nodes_[piece.node].sampler.get()};
      },
      [this](const Piece& piece, std::span<const size_t> y_positions,
             std::span<Point2> dst) {
        const std::vector<uint32_t>& ids = nodes_[piece.node].ids_by_y;
        for (size_t d = 0; d < dst.size(); ++d) {
          dst[d] = points_by_x_[ids[y_positions[d]]];
        }
      },
      rng, arena, opts, &result->resolved, &result->offsets, &result->points);
}

void RangeTree2DSampler::Report(const Rect& q, std::vector<size_t>* out) const {
  for (size_t id = 0; id < points_by_x_.size(); ++id) {
    if (q.Contains(points_by_x_[id])) out->push_back(id);
  }
}

size_t RangeTree2DSampler::MemoryBytes() const {
  size_t bytes = points_by_x_.capacity() * sizeof(Point2) +
                 weights_by_x_.capacity() * sizeof(double) +
                 nodes_.capacity() * sizeof(Node);
  for (const Node& node : nodes_) {
    bytes += node.ids_by_y.capacity() * sizeof(uint32_t) +
             node.y_sorted_ys.capacity() * sizeof(double) +
             node.weight_prefix.capacity() * sizeof(double) +
             node.bridge_left.capacity() * sizeof(uint32_t);
    if (node.sampler != nullptr) bytes += node.sampler->MemoryBytes();
  }
  return bytes;
}

}  // namespace iqs::multidim
