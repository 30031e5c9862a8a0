// Batch serving for structures whose QueryBatch lays out its own pieces
// and draws them through many position samplers (the range trees, the
// Bentley-Saxe components of LogarithmicRangeSampler). The pipeline is
// the paper's O(f(n) + s) split: a randomness-free cover search, then
// O(1) work per independent sample.
//
// EnumerateCovers is the first stage. It turns a batch of queries into
// the structure's piece list plus a CoverPlan over it, and fills the
// batch result's per-query `resolved` flags and `offsets`. With no pool
// it enumerates on the calling thread. With a pool (the deterministic
// parallel mode) each query's enumeration runs on the pool's workers,
// which append pieces to per-worker buffers; the caller then stitches
// them into `pieces` and the plan in query order. Enumeration draws no
// randomness, so the plan, the piece order and the group tags are
// identical in both modes, and every later stage (the sequential
// CoverExecutor::Split, run formation, substream assignment) sees
// exactly the same input.
//
// ServePieceBatch is the whole pipeline: EnumerateCovers, the budget
// split, the manual-serve telemetry, then the draw stage coalesced by
// sampler (see its comment).
//
// Steady state allocates nothing: the per-worker buffers, the plan, the
// piece list and the staging vectors are thread_local to the calling
// thread (or to the worker) and sized to the largest batch seen, and the
// per-batch scratch comes from `arena`.

#ifndef IQS_COVER_COVER_ENUMERATION_H_
#define IQS_COVER_COVER_ENUMERATION_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "iqs/cover/cover_executor.h"
#include "iqs/cover/cover_plan.h"
#include "iqs/range/range_sampler.h"
#include "iqs/util/batch_options.h"
#include "iqs/util/check.h"
#include "iqs/util/rng.h"
#include "iqs/util/scratch_arena.h"
#include "iqs/util/telemetry.h"
#include "iqs/util/thread_pool.h"

namespace iqs {

// `Query` has a sample budget `s`; `Piece` has `lo`, `hi` and `weight`
// (the group it becomes). `enumerate(query, &out)` appends the query's
// pieces to `out` (a std::vector<Piece>*) and must be safe to call
// concurrently for different queries. Query i's groups are tagged with
// their index into `pieces`; a query with no pieces is unresolved, and a
// query with budget 0 adds no groups. `arena` must stay un-Reset while
// the plan is in use. Returns the batch's total sample count.
template <typename Query, typename Piece, typename Enumerate>
size_t EnumerateCovers(std::span<const Query> queries, ThreadPool* pool,
                       Enumerate&& enumerate, ScratchArena* arena,
                       std::vector<Piece>* pieces, CoverPlan* plan,
                       std::span<uint8_t> resolved,
                       std::span<size_t> offsets) {
  const size_t nq = queries.size();
  size_t total = 0;
  // Adds query i, whose pieces are pieces[first ..), to the plan.
  auto add_query = [&](size_t i, size_t first) {
    offsets[i] = total;
    plan->BeginQuery(queries[i].s);
    const bool ok = pieces->size() > first;
    resolved[i] = ok ? 1 : 0;
    if (!ok || queries[i].s == 0) return;
    for (size_t j = first; j < pieces->size(); ++j) {
      const Piece& piece = (*pieces)[j];
      plan->AddGroup(piece.lo, piece.hi, piece.weight, j);
    }
    total += queries[i].s;
  };

  if (pool == nullptr) {
    for (size_t i = 0; i < nq; ++i) {
      const size_t first = pieces->size();
      enumerate(queries[i], pieces);
      add_query(i, first);
    }
    offsets[nq] = total;
    return total;
  }

  // Query i's pieces land at buffers[worker[i]].pieces[begin[i] .. end[i]).
  struct Extent {
    size_t worker;
    size_t begin;
    size_t end;
  };
  // One cache line per worker's buffer header: every append writes it.
  struct alignas(64) WorkerBuffer {
    std::vector<Piece> pieces;
  };
  // The buffers are the CALLING thread's; workers reach them only through
  // this span (a bare thread_local in the lambda would name the worker's
  // own instance). A worker index is held by one thread at a time, so
  // each buffer has a single writer.
  thread_local std::vector<WorkerBuffer> worker_buffers;
  if (worker_buffers.size() < pool->num_threads()) {
    worker_buffers.resize(pool->num_threads());
  }
  // No worker holds more pieces than a whole batch, so sizing every
  // buffer to the largest batch seen (pieces' capacity) keeps steady
  // state allocation-free however the stealing deals the queries, for
  // num_threads batches' worth of pieces (~24 B each) per calling thread.
  for (WorkerBuffer& buffer : worker_buffers) {
    buffer.pieces.clear();
    buffer.pieces.reserve(pieces->capacity());
  }
  const std::span<WorkerBuffer> buffers(worker_buffers);
  const std::span<Extent> extents = arena->Alloc<Extent>(nq);
  ParallelForShards(pool, nq, [&](size_t first, size_t last, size_t worker) {
    std::vector<Piece>* out = &buffers[worker].pieces;
    for (size_t i = first; i < last; ++i) {
      const size_t begin = out->size();
      enumerate(queries[i], out);
      extents[i] = Extent{worker, begin, out->size()};
    }
  });
  for (size_t i = 0; i < nq; ++i) {
    const size_t first = pieces->size();
    const std::vector<Piece>& buffer = buffers[extents[i].worker].pieces;
    pieces->insert(pieces->end(),
                   buffer.begin() + static_cast<ptrdiff_t>(extents[i].begin),
                   buffer.begin() + static_cast<ptrdiff_t>(extents[i].end));
    add_query(i, first);
  }
  offsets[nq] = total;
  return total;
}

// Where a piece's draws come from: every piece with the same `key` is
// drawn by the same `sampler`, in one QueryPositionsBatch call. A null
// `sampler` marks a piece that needs no draw (a singleton point).
template <typename Sampler>
struct PieceRun {
  uint32_t key = 0;
  const Sampler* sampler = nullptr;
};

// Serves a batch end to end: EnumerateCovers (on `pool` when non-null),
// CoverExecutor::Split, telemetry, then the draw stage. `Piece` is as for
// EnumerateCovers; the caller supplies
//   run_of(piece) -> PieceRun<Sampler>, the piece's run key and sampler;
//   emit(piece, positions, dst), which maps the positions drawn for the
//     piece (empty for a piece with a null sampler) to the samples
//     dst[0 .. dst.size()).
// The draw stage sorts the nonzero groups by (run key, group index) and
// gives each run of equal keys one QueryPositionsBatch call over its
// pieces' position ranges. With no pool the runs draw in key order from
// `rng`; with a pool the stage takes one batch key from `rng` (iff the
// batch owes any sample) and run r draws from its ForkStream(r) on the
// pool's workers, so output is bit-identical for every thread count.
// Every group's draws land at its split offset, so each query's samples
// are contiguous in `out`. The caller owns `pool`, and keeps any
// structure `enumerate` reads alive for the call.
template <typename Piece, typename Query, typename Out, typename Enumerate,
          typename RunOf, typename Emit>
void ServePieceBatch(std::span<const Query> queries, ThreadPool* pool,
                     Enumerate&& enumerate, RunOf&& run_of, Emit&& emit,
                     Rng* rng, ScratchArena* arena, const BatchOptions& opts,
                     std::vector<uint8_t>* resolved,
                     std::vector<size_t>* offsets, std::vector<Out>* out) {
  TelemetrySink* const sink = opts.telemetry;
  const uint64_t start_ns = sink != nullptr ? TelemetryNowNs() : 0;
  arena->Reset();
  thread_local CoverPlan plan;
  thread_local std::vector<Piece> pieces;
  thread_local std::vector<size_t> staged;
  plan.Clear();
  pieces.clear();
  resolved->resize(queries.size());
  offsets->resize(queries.size() + 1);
  const size_t total = EnumerateCovers(queries, pool, enumerate, arena,
                                       &pieces, &plan, *resolved, *offsets);
  const CoverSplit split = CoverExecutor::Split(plan, rng, arena, sink);
  IQS_CHECK(split.total == total);
  out->clear();
  out->resize(total);
  if (sink != nullptr) {
    // This pipeline serves its draws itself (not via
    // CoverExecutor::Execute), so it owns samples_emitted and the arena
    // high-water mark (telemetry.h).
    QueryStats* stats = &sink->shard(0)->stats;
    stats->samples_emitted += total;
    if (arena->capacity_bytes() > stats->arena_bytes_hwm) {
      stats->arena_bytes_hwm = arena->capacity_bytes();
    }
  }

  // `plan`, `pieces` and `staged` are thread_local, so code that may run
  // on pool workers goes through these caller-bound views.
  const std::span<const CoverGroup> groups = plan.groups();
  const std::span<const Piece> batch_pieces(pieces);
  const std::span<Out> samples(*out);
  auto dst_of = [&](size_t g) {
    return samples.subspan(split.offsets[g], split.counts[g]);
  };

  // Sort keys: the run key in the high word, the group index in the low
  // one, so a plain integer sort orders runs by key and ties by group.
  IQS_DCHECK(groups.size() <= UINT32_MAX);
  const std::span<uint64_t> order = arena->Alloc<uint64_t>(groups.size());
  size_t active = 0;
  for (size_t g = 0; g < groups.size(); ++g) {
    if (split.counts[g] == 0) continue;
    const Piece& piece = batch_pieces[groups[g].tag];
    const auto run = run_of(piece);
    if (run.sampler == nullptr) {
      emit(piece, std::span<const size_t>(), dst_of(g));
      continue;
    }
    order[active++] = (uint64_t{run.key} << 32) | g;
  }
  std::sort(order.begin(), order.begin() + static_cast<ptrdiff_t>(active));
  const std::span<size_t> run_start = arena->Alloc<size_t>(active + 1);
  size_t num_runs = 0;
  for (size_t k = 0; k < active; ++k) {
    if (k == 0 || (order[k] >> 32) != (order[k - 1] >> 32)) {
      run_start[num_runs++] = k;
    }
  }
  run_start[num_runs] = active;

  // Draws run r from `run_rng` with scratch from `scratch`; runs write
  // disjoint slices of `out`.
  auto serve_run = [&](size_t r, Rng* run_rng, ScratchArena* scratch,
                       std::vector<size_t>* positions) {
    const size_t rs = run_start[r];
    const size_t re = run_start[r + 1];
    const std::span<PositionQuery> requests =
        scratch->Alloc<PositionQuery>(re - rs);
    for (size_t k = rs; k < re; ++k) {
      const uint32_t g = static_cast<uint32_t>(order[k]);
      requests[k - rs] =
          PositionQuery{groups[g].lo, groups[g].hi, split.counts[g]};
    }
    const uint32_t first_group = static_cast<uint32_t>(order[rs]);
    const auto* sampler =
        run_of(batch_pieces[groups[first_group].tag]).sampler;
    positions->clear();
    sampler->QueryPositionsBatch(requests, run_rng, scratch, positions);
    // QueryPositionsBatch appends each request's draws contiguously in
    // order.
    const std::span<const size_t> drawn(*positions);
    size_t cursor = 0;
    for (size_t k = rs; k < re; ++k) {
      const uint32_t g = static_cast<uint32_t>(order[k]);
      emit(batch_pieces[groups[g].tag],
           drawn.subspan(cursor, split.counts[g]), dst_of(g));
      cursor += split.counts[g];
    }
    IQS_DCHECK(cursor == drawn.size());
  };

  if (pool == nullptr) {
    for (size_t r = 0; r < num_runs; ++r) serve_run(r, rng, arena, &staged);
  } else if (total > 0) {
    // Runs are the shardable unit, each under its own substream. The run
    // composition depends only on the sequential split above.
    const Rng base(rng->Next64());
    if (sink != nullptr) ++sink->shard(0)->stats.rng_draws;  // the batch key
    ParallelForShards(
        pool, num_runs, [&](size_t first, size_t last, size_t worker) {
          ScratchArena* worker_arena = pool->worker_arena(worker);
          // The worker's own staging buffer.
          thread_local std::vector<size_t> worker_staged;
          for (size_t r = first; r < last; ++r) {
            Rng run_rng = base.ForkStream(r);
            worker_arena->Reset();
            serve_run(r, &run_rng, worker_arena, &worker_staged);
          }
        });
  }
  if (sink != nullptr) {
    sink->shard(0)->latency.Record(TelemetryNowNs() - start_ns);
  }
}

}  // namespace iqs

#endif  // IQS_COVER_COVER_ENUMERATION_H_
