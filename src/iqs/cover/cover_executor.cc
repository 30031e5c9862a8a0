#include "iqs/cover/cover_executor.h"

#include <algorithm>

#include "iqs/range/range_sampler.h"
#include "iqs/util/thread_pool.h"

namespace iqs {

namespace {

// Randomness words the split stage consumes for query q: s doubles when
// the budget is split across >= 2 groups, none otherwise (the
// single-group / empty shortcut in MultinomialSplitScratch).
uint64_t SplitDrawsForQuery(const CoverPlan& plan, size_t q) {
  return plan.end_group(q) - plan.first_group(q) >= 2 ? plan.budget(q) : 0;
}

void RecordSplitStats(const CoverPlan& plan, TelemetrySink* sink) {
  QueryStats* stats = &sink->shard(0)->stats;
  stats->queries += plan.num_queries();
  stats->cover_groups += plan.num_groups();
  for (size_t q = 0; q < plan.num_queries(); ++q) {
    stats->rng_draws += SplitDrawsForQuery(plan, q);
  }
}

// Parallel lowering of ExecuteOverSampler: each query's nonzero groups
// become position requests served by the sampler under the query's
// substream (defined after ExecuteParallel below).
void ExecuteOverSamplerParallel(const CoverPlan& plan,
                                const RangeSampler& sampler, Rng* rng,
                                ScratchArena* arena, const BatchOptions& opts,
                                std::vector<size_t>* out);

}  // namespace

CoverSplit CoverExecutor::Split(const CoverPlan& plan, Rng* rng,
                                ScratchArena* arena, TelemetrySink* sink) {
  const size_t g = plan.num_groups();
  const std::span<uint32_t> counts = arena->Alloc<uint32_t>(g);
  const std::span<double> weights = arena->Alloc<double>(g);
  const std::span<const CoverGroup> groups = plan.groups();
  for (size_t i = 0; i < g; ++i) weights[i] = groups[i].weight;

  for (size_t q = 0; q < plan.num_queries(); ++q) {
    const size_t first = plan.first_group(q);
    const size_t t = plan.end_group(q) - first;
    if (t == 0) continue;
    MultinomialSplitScratch(weights.subspan(first, t), plan.budget(q), rng,
                            arena, counts.subspan(first, t));
  }
  if (sink != nullptr) RecordSplitStats(plan, sink);

  const std::span<size_t> offsets = arena->Alloc<size_t>(g + 1);
  size_t total = 0;
  for (size_t i = 0; i < g; ++i) {
    offsets[i] = total;
    total += counts[i];
  }
  offsets[g] = total;
  return CoverSplit{counts, offsets, total};
}

void CoverExecutor::ExecuteOverSampler(const CoverPlan& plan,
                                       const RangeSampler& sampler, Rng* rng,
                                       ScratchArena* arena,
                                       const BatchOptions& opts,
                                       std::vector<size_t>* out) {
  // Frontend contract (BatchOptions::max_batch): a nonzero bound promises
  // the plan came from a micro-batcher that never coalesces past it.
  IQS_CHECK(opts.max_batch == 0 || plan.num_queries() <= opts.max_batch);
  if (!opts.sequential()) {
    ExecuteOverSamplerParallel(plan, sampler, rng, arena, opts, out);
    return;
  }
  const CoverSplit split = Split(plan, rng, arena, opts.telemetry);
  if (split.total == 0) return;
  // Lower nonzero groups to position-space requests; QueryPositionsBatch
  // appends each request's draws contiguously in order, which is exactly
  // the flat layout Split's offsets describe. The nested batch runs
  // WITHOUT a sink: the executor owns the batch's counters, and passing
  // the sink down would double-count (telemetry.h ownership table).
  const std::span<const CoverGroup> groups = plan.groups();
  const std::span<PositionQuery> requests =
      arena->Alloc<PositionQuery>(groups.size());
  size_t m = 0;
  for (size_t i = 0; i < groups.size(); ++i) {
    if (split.counts[i] == 0) continue;
    requests[m++] = PositionQuery{groups[i].lo, groups[i].hi,
                                  static_cast<size_t>(split.counts[i])};
  }
  out->reserve(out->size() + split.total);
  sampler.QueryPositionsBatch(requests.first(m), rng, arena, out);
  if (opts.telemetry != nullptr) {
    QueryStats* stats = &opts.telemetry->shard(0)->stats;
    stats->samples_emitted += split.total;
    if (arena->capacity_bytes() > stats->arena_bytes_hwm) {
      stats->arena_bytes_hwm = arena->capacity_bytes();
    }
  }
}

void CoverExecutor::ExecuteParallel(const CoverPlan& plan, Rng* rng,
                                    ScratchArena* arena,
                                    const BatchOptions& opts,
                                    CoverQueryDrawFn draw,
                                    std::vector<size_t>* out) {
  IQS_CHECK(!opts.sequential());
  IQS_CHECK(opts.max_batch == 0 || plan.num_queries() <= opts.max_batch);
  const size_t nq = plan.num_queries();
  const size_t g = plan.num_groups();
  ScopedPool pool(opts);

  // One word of the caller's stream keys the whole batch (so repeated
  // batches stay independent); from here on every draw is a pure function
  // of (key, query index), independent of thread count and sharding.
  const Rng base(rng->Next64());

  const std::span<Rng> rngs = arena->Alloc<Rng>(nq);
  const std::span<uint32_t> counts = arena->Alloc<uint32_t>(g);
  const std::span<double> weights = arena->Alloc<double>(g);
  const std::span<const CoverGroup> groups = plan.groups();
  for (size_t i = 0; i < g; ++i) weights[i] = groups[i].weight;

  // Pass 1: per-query budget splits. Queries own disjoint slices of
  // `counts`, and each worker's scratch is its own arena, so shards never
  // write shared state.
  ParallelForShards(
      pool.get(), nq, [&](size_t first, size_t last, size_t worker) {
        ScratchArena* wa = pool->worker_arena(worker);
        for (size_t q = first; q < last; ++q) {
          rngs[q] = base.ForkStream(q);
          const size_t fg = plan.first_group(q);
          const size_t t = plan.end_group(q) - fg;
          if (t == 0) continue;
          wa->Reset();
          MultinomialSplitScratch(weights.subspan(fg, t), plan.budget(q),
                                  &rngs[q], wa, counts.subspan(fg, t));
        }
      });

  // Offsets are a cheap sequential prefix sum over groups.
  const std::span<size_t> offsets = arena->Alloc<size_t>(g + 1);
  size_t total = 0;
  for (size_t i = 0; i < g; ++i) {
    offsets[i] = total;
    total += counts[i];
  }
  offsets[g] = total;
  const CoverSplit split{counts, offsets, total};

  if (opts.telemetry != nullptr) {
    // Batch-level counters, recorded once on the calling thread (draw
    // callbacks record per-worker detail into shard(worker) themselves).
    // The +1 is the batch key drawn above.
    QueryStats* stats = &opts.telemetry->shard(0)->stats;
    stats->queries += nq;
    stats->cover_groups += g;
    stats->rng_draws += 1;
    for (size_t q = 0; q < nq; ++q) {
      stats->rng_draws += SplitDrawsForQuery(plan, q);
    }
    stats->samples_emitted += total;
    if (arena->capacity_bytes() > stats->arena_bytes_hwm) {
      stats->arena_bytes_hwm = arena->capacity_bytes();
    }
  }
  if (total == 0) return;

  const size_t base_size = out->size();
  out->resize(base_size + total);
  const std::span<size_t> dst =
      std::span<size_t>(*out).subspan(base_size, total);

  // Pass 2: draws. Each query continues the substream its split left off
  // at and writes only its own offset slices of dst.
  ParallelForShards(
      pool.get(), nq, [&](size_t first, size_t last, size_t worker) {
        ScratchArena* wa = pool->worker_arena(worker);
        for (size_t q = first; q < last; ++q) {
          if (offsets[plan.end_group(q)] == offsets[plan.first_group(q)]) {
            continue;
          }
          wa->Reset();
          draw(plan, split, dst, q, worker, &rngs[q], wa);
        }
      });
}

namespace {

void ExecuteOverSamplerParallel(const CoverPlan& plan,
                                const RangeSampler& sampler, Rng* rng,
                                ScratchArena* arena, const BatchOptions& opts,
                                std::vector<size_t>* out) {
  CoverExecutor::ExecuteParallel(
      plan, rng, arena, opts,
      [&sampler](const CoverPlan& plan, const CoverSplit& split,
                 std::span<size_t> dst, size_t q, size_t /*worker*/,
                 Rng* qrng, ScratchArena* wa) {
        // Lower the query's nonzero groups to position requests and run
        // the sampler's grouped kernel once for this query. The sampler
        // appends per request contiguously in order, which is exactly the
        // query's slice of the flat offsets — stage through a per-thread
        // buffer because QueryPositionsBatch appends to a vector.
        const size_t fg = plan.first_group(q);
        const size_t eg = plan.end_group(q);
        const std::span<const CoverGroup> groups = plan.groups();
        const std::span<PositionQuery> requests =
            wa->Alloc<PositionQuery>(eg - fg);
        size_t m = 0;
        for (size_t i = fg; i < eg; ++i) {
          if (split.counts[i] == 0) continue;
          requests[m++] = PositionQuery{groups[i].lo, groups[i].hi,
                                        static_cast<size_t>(split.counts[i])};
        }
        thread_local std::vector<size_t> buf;
        buf.clear();
        sampler.QueryPositionsBatch(requests.first(m), qrng, wa, &buf);
        IQS_DCHECK(buf.size() == split.offsets[eg] - split.offsets[fg]);
        std::copy(buf.begin(), buf.end(),
                  dst.begin() + split.offsets[fg]);
      },
      out);
}

}  // namespace

}  // namespace iqs
