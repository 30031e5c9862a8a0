// Batch cover enumeration: the randomness-free first stage of a serving
// batch (the f(n) term of an O(f(n) + s) IQS query), shared by the
// structures whose QueryBatch lays out its own pieces (the range trees).
//
// EnumerateCovers turns a batch of queries into the structure's piece
// list plus a CoverPlan over it, and fills the batch result's per-query
// `resolved` flags and `offsets`. With no pool it enumerates on the
// calling thread. With a pool (the deterministic parallel mode) each
// query's enumeration runs on the pool's workers, which append pieces to
// per-worker buffers; the caller then stitches them into `pieces` and the
// plan in query order. Enumeration draws no randomness, so the plan, the
// piece order and the group tags are identical in both modes, and every
// later stage (the sequential CoverExecutor::Split, run formation,
// substream assignment) sees exactly the same input.
//
// Steady state allocates nothing: the per-worker buffers are thread_local
// to the calling thread and sized to the largest batch seen, the
// per-query extents come from `arena`, and `pieces`/`plan` are the
// caller's reused buffers.

#ifndef IQS_COVER_COVER_ENUMERATION_H_
#define IQS_COVER_COVER_ENUMERATION_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "iqs/cover/cover_plan.h"
#include "iqs/util/batch_options.h"
#include "iqs/util/scratch_arena.h"
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

}  // namespace iqs

#endif  // IQS_COVER_COVER_ENUMERATION_H_
