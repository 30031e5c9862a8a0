#include "iqs/multidim/range_tree_nd.h"

#include <algorithm>
#include <numeric>
#include <optional>

#include "iqs/cover/cover_enumeration.h"
#include "iqs/cover/cover_executor.h"
#include "iqs/sampling/multinomial.h"
#include "iqs/util/check.h"
#include "iqs/util/telemetry.h"

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
  if (weights.empty()) {
    weights_.assign(n, 1.0);
  } else {
    IQS_CHECK(weights.size() == n);
    weights_.assign(weights.begin(), weights.end());
    // iqs-lint: allow(check-in-loop) -- cold build-path input validation
    for (double w : weights_) IQS_CHECK(w > 0.0);
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
  const uint64_t start_ns = opts.telemetry != nullptr ? TelemetryNowNs() : 0;
  auto record_latency = [&] {
    if (opts.telemetry != nullptr) {
      opts.telemetry->shard(0)->latency.Record(TelemetryNowNs() - start_ns);
    }
  };
  result->Clear();
  arena->Reset();
  thread_local CoverPlan plan;
  thread_local std::vector<Piece> pieces;
  thread_local std::vector<size_t> positions;
  plan.Clear();
  pieces.clear();
  const size_t nq = queries.size();
  result->resolved.resize(nq);
  result->offsets.resize(nq + 1);
  // Parallel mode enumerates the covers on the pool too (see
  // RangeTree2DSampler::QueryBatch). Singleton pieces carry the point id
  // in lo == hi; the split stage never reads the range.
  std::optional<ScopedPool> scoped_pool;
  if (!opts.sequential()) scoped_pool.emplace(opts);
  ThreadPool* const pool = scoped_pool ? scoped_pool->get() : nullptr;
  const size_t total_samples = EnumerateCovers(
      queries, pool,
      [this](const BoxBatchQuery& query, std::vector<Piece>* out) {
        IQS_DCHECK(query.box.dim() == dim_);
        CollectPieces(*root_, query.box, out);
      },
      arena, &pieces, &plan, result->resolved, result->offsets);

  const CoverSplit split = CoverExecutor::Split(plan, rng, arena,
                                                opts.telemetry);
  IQS_CHECK(split.total == total_samples);
  result->positions.assign(total_samples, 0);
  if (opts.telemetry != nullptr) {
    // This path serves draws manually (not via CoverExecutor::Execute), so
    // it owns the samples_emitted / arena high-water accounting.
    QueryStats* stats = &opts.telemetry->shard(0)->stats;
    stats->samples_emitted += split.total;
    if (arena->capacity_bytes() > stats->arena_bytes_hwm) {
      stats->arena_bytes_hwm = arena->capacity_bytes();
    }
  }
  if (total_samples == 0) {
    record_latency();
    return;
  }

  // Serve singleton groups directly; coalesce the rest by final-level
  // structure so shared leaf samplers get one batched call each.
  //
  // `pieces`/`plan` are thread_local, so lambdas that may run on pool
  // workers must go through these caller-bound views — a bare `pieces`
  // inside the lambda would resolve to the worker's own (empty) instance.
  const std::span<const Piece> batch_pieces(pieces);
  const std::span<const CoverGroup> groups = plan.groups();
  const std::span<uint32_t> order = arena->Alloc<uint32_t>(groups.size());
  size_t active = 0;
  for (size_t g = 0; g < groups.size(); ++g) {
    if (split.counts[g] == 0) continue;
    const Piece& piece = batch_pieces[groups[g].tag];
    if (piece.leaf_structure == nullptr) {
      const size_t dst = split.offsets[g];
      for (uint32_t d = 0; d < split.counts[g]; ++d) {
        result->positions[dst + d] = piece.lo;
      }
      continue;
    }
    order[active++] = static_cast<uint32_t>(g);
  }
  // Runs are ordered by the structures' build ordinals, never by their
  // addresses: run r draws from ForkStream(r) (and sequential mode walks
  // runs in this order), so the order must not depend on heap layout.
  std::sort(order.begin(), order.begin() + static_cast<ptrdiff_t>(active),
            [&](uint32_t ga, uint32_t gb) {
              const uint32_t sa =
                  batch_pieces[groups[ga].tag].leaf_structure->ordinal;
              const uint32_t sb =
                  batch_pieces[groups[gb].tag].leaf_structure->ordinal;
              return sa != sb ? sa < sb : ga < gb;
            });

  // Run boundaries over the sorted order: one run per leaf structure.
  const std::span<size_t> run_start = arena->Alloc<size_t>(active + 1);
  size_t num_runs = 0;
  for (size_t k = 0; k < active;) {
    run_start[num_runs++] = k;
    const LevelStructure* structure =
        batch_pieces[groups[order[k]].tag].leaf_structure;
    while (k < active &&
           batch_pieces[groups[order[k]].tag].leaf_structure == structure) {
      ++k;
    }
  }
  run_start[num_runs] = active;

  // Serves run r with the given rng/scratch/staging buffer; runs write
  // disjoint slices of the flat output.
  auto serve_run = [&](size_t r, Rng* run_rng, ScratchArena* scratch,
                       std::vector<size_t>* staged) {
    const size_t rs = run_start[r];
    const size_t re = run_start[r + 1];
    const LevelStructure* structure =
        batch_pieces[groups[order[rs]].tag].leaf_structure;
    const std::span<PositionQuery> requests =
        scratch->Alloc<PositionQuery>(re - rs);
    size_t m = 0;
    for (size_t k = rs; k < re; ++k) {
      const Piece& piece = batch_pieces[groups[order[k]].tag];
      requests[m++] = PositionQuery{
          piece.lo, piece.hi, static_cast<size_t>(split.counts[order[k]])};
    }
    staged->clear();
    structure->sampler->QueryPositionsBatch(requests.first(m), run_rng,
                                            scratch, staged);
    size_t cursor = 0;
    for (size_t k = rs; k < re; ++k) {
      const uint32_t g = order[k];
      const size_t dst = split.offsets[g];
      for (uint32_t d = 0; d < split.counts[g]; ++d) {
        result->positions[dst + d] =
            structure->ids_sorted[(*staged)[cursor++]];
      }
    }
    IQS_DCHECK(cursor == staged->size());
  };

  if (opts.sequential()) {
    for (size_t r = 0; r < num_runs; ++r) {
      serve_run(r, rng, arena, &positions);
    }
    record_latency();
    return;
  }

  // Parallel mode: runs are the shardable unit, each under its own
  // substream (see RangeTree2DSampler::QueryBatch).
  const Rng base(rng->Next64());
  if (opts.telemetry != nullptr) {
    ++opts.telemetry->shard(0)->stats.rng_draws;  // the batch key
  }
  ParallelForShards(
      pool, num_runs, [&](size_t first, size_t last, size_t worker) {
        ScratchArena* wa = pool->worker_arena(worker);
        thread_local std::vector<size_t> staged;
        for (size_t r = first; r < last; ++r) {
          Rng run_rng = base.ForkStream(r);
          wa->Reset();
          serve_run(r, &run_rng, wa, &staged);
        }
      });
  record_latency();
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
