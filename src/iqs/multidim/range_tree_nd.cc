#include "iqs/multidim/range_tree_nd.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "iqs/cover/cover_enumeration.h"
#include "iqs/sampling/multinomial.h"
#include "iqs/util/check.h"

namespace iqs::multidim {

RangeTreeNdSampler::RangeTreeNdSampler(size_t dim,
                                       std::span<const double> coords,
                                       std::span<const double> weights,
                                       size_t leaf_size)
    : dim_(dim),
      leaf_size_(std::max<size_t>(leaf_size, 1)),
      coords_(coords.begin(), coords.end()) {
  IQS_CHECK(dim_ >= 1);
  IQS_CHECK(!coords_.empty());
  IQS_CHECK(coords_.size() % dim_ == 0);
  const size_t n = coords_.size() / dim_;
  IQS_CHECK(n <= UINT32_MAX);  // ids and runs are uint32_t
  if (weights.empty()) {
    weights_.assign(n, 1.0);
  } else {
    IQS_CHECK(weights.size() == n);
    weights_.assign(weights.begin(), weights.end());
    // iqs-lint: allow(check-in-loop) -- cold build-path input validation
    for (double w : weights_) IQS_CHECK(std::isfinite(w) && w > 0.0);
  }
  std::vector<uint32_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  uint32_t next_ordinal = 0;
  root_ = BuildStructure(0, std::move(ids), &next_ordinal);
}

std::unique_ptr<RangeTreeNdSampler::LevelStructure>
RangeTreeNdSampler::BuildStructure(size_t level, std::vector<uint32_t> ids,
                                   uint32_t* next_ordinal) const {
  auto s = std::make_unique<LevelStructure>();
  s->level = level;
  s->ids_sorted = std::move(ids);
  const size_t axis = level;
  std::sort(s->ids_sorted.begin(), s->ids_sorted.end(),
            [&](uint32_t a, uint32_t b) {
              return coords_[a * dim_ + axis] < coords_[b * dim_ + axis];
            });
  const size_t m = s->ids_sorted.size();
  s->sorted_coords.resize(m);
  for (size_t i = 0; i < m; ++i) {
    s->sorted_coords[i] = coords_[s->ids_sorted[i] * dim_ + axis];
  }

  if (level + 1 == dim_) {
    // Final level: prefix sums + the Theorem-3 sampler over this order.
    s->ordinal = (*next_ordinal)++;
    s->weight_prefix.assign(m + 1, 0.0);
    std::vector<double> w(m);
    for (size_t i = 0; i < m; ++i) {
      w[i] = weights_[s->ids_sorted[i]];
      s->weight_prefix[i + 1] = s->weight_prefix[i] + w[i];
    }
    std::vector<double> position_keys(m);
    std::iota(position_keys.begin(), position_keys.end(), 0.0);
    s->sampler = std::make_unique<ChunkedRangeSampler>(position_keys, w);
    return s;
  }

  s->tree.reserve(4 * (m / leaf_size_ + 2));
  const uint32_t root = BuildTree(s.get(), 0, m - 1, next_ordinal);
  IQS_CHECK(root == 0);
  return s;
}

uint32_t RangeTreeNdSampler::BuildTree(LevelStructure* s, size_t lo,
                                       size_t hi,
                                       uint32_t* next_ordinal) const {
  const uint32_t id = static_cast<uint32_t>(s->tree.size());
  s->tree.emplace_back();
  s->tree[id].lo = static_cast<uint32_t>(lo);
  s->tree[id].hi = static_cast<uint32_t>(hi);
  if (hi - lo + 1 > leaf_size_) {
    const size_t mid = lo + (hi - lo) / 2;
    const uint32_t left = BuildTree(s, lo, mid, next_ordinal);
    const uint32_t right = BuildTree(s, mid + 1, hi, next_ordinal);
    s->tree[id].left = left;
    s->tree[id].right = right;
  }
  std::vector<uint32_t> sub_ids(
      s->ids_sorted.begin() + static_cast<ptrdiff_t>(lo),
      s->ids_sorted.begin() + static_cast<ptrdiff_t>(hi) + 1);
  s->tree[id].child =
      BuildStructure(s->level + 1, std::move(sub_ids), next_ordinal);
  return id;
}

void RangeTreeNdSampler::CollectFinal(const LevelStructure& s,
                                      const BoxNd& q,
                                      std::vector<Piece>* pieces) const {
  const size_t axis = dim_ - 1;
  const auto first = std::lower_bound(s.sorted_coords.begin(),
                                      s.sorted_coords.end(), q.lo(axis));
  const auto last =
      std::upper_bound(first, s.sorted_coords.end(), q.hi(axis));
  if (first == last) return;
  const uint32_t a =
      static_cast<uint32_t>(first - s.sorted_coords.begin());
  const uint32_t b =
      static_cast<uint32_t>(last - s.sorted_coords.begin()) - 1;
  pieces->push_back(
      {&s, a, b, s.weight_prefix[b + 1] - s.weight_prefix[a]});
}

void RangeTreeNdSampler::CollectPieces(const LevelStructure& s,
                                       const BoxNd& q,
                                       std::vector<Piece>* pieces) const {
  if (s.level + 1 == dim_) {
    CollectFinal(s, q, pieces);
    return;
  }
  const size_t axis = s.level;
  // Position range of the axis interval in this structure's sorted order.
  const auto first = std::lower_bound(s.sorted_coords.begin(),
                                      s.sorted_coords.end(), q.lo(axis));
  const auto last =
      std::upper_bound(first, s.sorted_coords.end(), q.hi(axis));
  if (first == last) return;
  const uint32_t a =
      static_cast<uint32_t>(first - s.sorted_coords.begin());
  const uint32_t b =
      static_cast<uint32_t>(last - s.sorted_coords.begin()) - 1;

  // Canonical descent on a fixed stack (never allocates): depth-first
  // with both children pushed holds at most depth + 1 ids, and a balanced
  // tree over < 2^32 points is at most 33 levels deep.
  constexpr size_t kMaxFrames = 64;
  uint32_t stack[kMaxFrames];
  size_t top = 0;
  stack[top++] = 0;
  while (top > 0) {
    const uint32_t id = stack[--top];
    const LevelStructure::TreeNode& node = s.tree[id];
    if (node.lo > b || node.hi < a) continue;
    if (a <= node.lo && node.hi <= b) {
      CollectPieces(*node.child, q, pieces);
      continue;
    }
    if (node.left == kNull) {
      // Partial boundary leaf: filter its <= leaf_size points against ALL
      // remaining dimensions and emit singletons.
      for (uint32_t pos = node.lo; pos <= node.hi; ++pos) {
        if (pos < a || pos > b) continue;
        const uint32_t pid = s.ids_sorted[pos];
        bool inside = true;
        for (size_t k = s.level + 1; k < dim_; ++k) {
          const double c = coords_[pid * dim_ + k];
          if (c < q.lo(k) || c > q.hi(k)) {
            inside = false;
            break;
          }
        }
        if (inside) {
          pieces->push_back({nullptr, pid, pid, weights_[pid]});
        }
      }
      continue;
    }
    IQS_DCHECK(top + 2 <= kMaxFrames);
    stack[top++] = node.left;
    stack[top++] = node.right;
  }
}

bool RangeTreeNdSampler::QueryBox(const BoxNd& q, size_t s, Rng* rng,
                                  std::vector<size_t>* out) const {
  IQS_CHECK(q.dim() == dim_);
  std::vector<Piece> pieces;
  CollectPieces(*root_, q, &pieces);
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
    if (piece.leaf_structure == nullptr) {
      for (uint32_t k = 0; k < counts[i]; ++k) out->push_back(piece.lo);
      continue;
    }
    positions.clear();
    piece.leaf_structure->sampler->QueryPositions(piece.lo, piece.hi,
                                                  counts[i], rng, &positions);
    for (size_t pos : positions) {
      out->push_back(piece.leaf_structure->ids_sorted[pos]);
    }
  }
  return true;
}

void RangeTreeNdSampler::QueryBatch(std::span<const BoxBatchQuery> queries,
                                    Rng* rng, ScratchArena* arena,
                                    BatchResult* result) const {
  QueryBatch(queries, rng, arena, BatchOptions{}, result);
}

void RangeTreeNdSampler::QueryBatch(std::span<const BoxBatchQuery> queries,
                                    Rng* rng, ScratchArena* arena,
                                    const BatchOptions& opts,
                                    BatchResult* result) const {
  // Parallel mode enumerates the covers on the pool too (see
  // RangeTree2DSampler::QueryBatch).
  std::optional<ScopedPool> scoped_pool;
  if (!opts.sequential()) scoped_pool.emplace(opts);
  ServePieceBatch<Piece>(
      queries, scoped_pool ? scoped_pool->get() : nullptr,
      [this](const BoxBatchQuery& query, std::vector<Piece>* out) {
        IQS_DCHECK(query.box.dim() == dim_);
        CollectPieces(*root_, query.box, out);
      },
      // One run per final-level structure, keyed by its build ordinal
      // (never its address, so the run order is independent of heap
      // layout). Singleton pieces need no draw.
      [](const Piece& piece) {
        const LevelStructure* structure = piece.leaf_structure;
        if (structure == nullptr) return PieceRun<ChunkedRangeSampler>{};
        return PieceRun<ChunkedRangeSampler>{structure->ordinal,
                                             structure->sampler.get()};
      },
      [](const Piece& piece, std::span<const size_t> positions,
         std::span<size_t> dst) {
        if (piece.leaf_structure == nullptr) {
          std::fill(dst.begin(), dst.end(), piece.lo);  // the point id
          return;
        }
        const std::vector<uint32_t>& ids = piece.leaf_structure->ids_sorted;
        for (size_t d = 0; d < dst.size(); ++d) dst[d] = ids[positions[d]];
      },
      rng, arena, opts, &result->resolved, &result->offsets,
      &result->positions);
}

void RangeTreeNdSampler::Report(const BoxNd& q,
                                std::vector<size_t>* out) const {
  for (size_t id = 0; id < n(); ++id) {
    if (q.Contains(PointAt(id))) out->push_back(id);
  }
}

size_t RangeTreeNdSampler::MemoryBytes() const {
  size_t bytes = coords_.capacity() * sizeof(double) +
                 weights_.capacity() * sizeof(double);
  // Walk the structure tree.
  std::vector<const LevelStructure*> stack = {root_.get()};
  while (!stack.empty()) {
    const LevelStructure* s = stack.back();
    stack.pop_back();
    bytes += s->ids_sorted.capacity() * sizeof(uint32_t) +
             s->sorted_coords.capacity() * sizeof(double) +
             s->weight_prefix.capacity() * sizeof(double) +
             s->tree.capacity() * sizeof(LevelStructure::TreeNode);
    if (s->sampler != nullptr) bytes += s->sampler->MemoryBytes();
    for (const auto& node : s->tree) {
      if (node.child != nullptr) stack.push_back(node.child.get());
    }
  }
  return bytes;
}

}  // namespace iqs::multidim
