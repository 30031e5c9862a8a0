// Common interface for one-dimensional weighted range sampling structures
// (paper Sections 3-4).
//
// Problem (paper Section 3.2): a set S of n real keys, each with a positive
// weight. A query gives an interval q = [lo, hi] and a sample size s, and
// receives s independent weighted samples from S ∩ q; outputs of all
// queries are mutually independent.
//
// All implementations index elements by their *position* in sorted key
// order and return positions; Query() maps a real interval onto a position
// range with two binary searches and delegates to QueryPositions(). This
// keeps the structures composable — Theorem 3 runs a Lemma-2 structure over
// chunk positions, Lemma 4 runs one over Euler-tour positions, and every
// range-tree node runs one over its own y-order. Such compositions pass no
// keys: a position-keyed sampler (the protected RangeSampler(n)
// constructor) stores only its size and resolves [lo, hi] arithmetically,
// exactly as a binary search over the keys 0, 1, ..., n-1 would.

#ifndef IQS_RANGE_RANGE_SAMPLER_H_
#define IQS_RANGE_RANGE_SAMPLER_H_

#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

#include "iqs/util/batch_options.h"
#include "iqs/util/check.h"
#include "iqs/util/rng.h"
#include "iqs/util/scratch_arena.h"

namespace iqs {

// One query of a serving batch: draw `s` independent weighted samples from
// S ∩ [lo, hi].
struct BatchQuery {
  double lo = 0.0;
  double hi = 0.0;
  size_t s = 0;
};

// A position-space batch request (interval already resolved).
struct PositionQuery {
  size_t a = 0;
  size_t b = 0;
  size_t s = 0;
};

// Flat result of a QueryBatch call. Samples for query i occupy
// positions[offsets[i] .. offsets[i+1]); an unresolved (empty-interval)
// query has resolved[i] == 0 and an empty slice. Reusing one BatchResult
// across calls amortizes its buffers away.
struct BatchResult {
  std::vector<size_t> positions;
  std::vector<size_t> offsets;   // size num_queries() + 1
  std::vector<uint8_t> resolved;  // 1 iff the query interval was nonempty

  size_t num_queries() const { return resolved.size(); }

  std::span<const size_t> SamplesFor(size_t i) const {
    IQS_DCHECK(i + 1 < offsets.size());
    return std::span<const size_t>(positions)
        .subspan(offsets[i], offsets[i + 1] - offsets[i]);
  }

  void Clear() {
    positions.clear();
    offsets.clear();
    resolved.clear();
  }
};

class RangeSampler {
 public:
  virtual ~RangeSampler() = default;

  RangeSampler(const RangeSampler&) = delete;
  RangeSampler& operator=(const RangeSampler&) = delete;

  size_t n() const { return n_; }

  // Draws `s` independent weighted samples from the elements at positions
  // [a, b] (inclusive, a <= b < n), appending sampled positions to `out`.
  //
  // ORDERING CONTRACT: the s draws form an i.i.d. MULTISET; the order in
  // which they are appended is unspecified (implementations group them by
  // internal structure, e.g. by chunk). Callers that need an i.i.d.
  // SEQUENCE (e.g. "take the first distinct values") must shuffle first —
  // see sampling/wor_query.cc.
  virtual void QueryPositions(size_t a, size_t b, size_t s, Rng* rng,
                              std::vector<size_t>* out) const = 0;

  // Draws `s` independent weighted samples from S ∩ [lo, hi], appending
  // sampled positions to `out`. Returns false (and appends nothing) when
  // the interval contains no element. O(log n) on top of QueryPositions.
  bool Query(double lo, double hi, size_t s, Rng* rng,
             std::vector<size_t>* out) const;

  // Resolves [lo, hi] to the inclusive position range it covers. Returns
  // false if empty; an interval with !(lo <= hi) — inverted, or with a NaN
  // bound — is empty.
  bool ResolveInterval(double lo, double hi, size_t* a, size_t* b) const;

  // Batched serving fast path — THE CANONICAL BATCH SIGNATURE: every
  // batch entry point in the library (1-d, multidim, tree, integer) takes
  // (queries, rng, arena, options, &result) in this order. Resolves every
  // query interval once, then hands the resolved requests to
  // QueryPositionsBatch in one call; the result is written into `result`
  // (cleared first) as a flat buffer with per-query offsets. All scratch
  // comes from `arena`; with a reused arena and result the steady state
  // performs zero heap allocations beyond the result buffers' retained
  // capacity. Each query's draws obey the same ORDERING CONTRACT as
  // QueryPositions (i.i.d. multiset, unspecified order), and draws are
  // independent across queries of the batch.
  //
  // opts.num_threads >= 1 selects the deterministic parallel mode (see
  // BatchOptions): same per-query output law and ordering contract,
  // output bit-identical for every thread count under a fixed seed, but a
  // different stream assignment than the sequential default.
  // opts.telemetry attaches an observability sink (one latency sample per
  // batch call plus the pipeline counters; never perturbs the Rng).
  void QueryBatch(std::span<const BatchQuery> queries, Rng* rng,
                  ScratchArena* arena, const BatchOptions& opts,
                  BatchResult* result) const;

  // Convenience: default options.
  void QueryBatch(std::span<const BatchQuery> queries, Rng* rng,
                  ScratchArena* arena, BatchResult* result) const;

  // Position-space batch hook, in the canonical argument order. Appends,
  // for each query in order, exactly q.s sampled positions to `out`
  // (contiguous per query). With sequential opts the base implementation
  // loops over QueryPositions; subclasses override it with grouped
  // multinomial sampling over the canonical cover, which turns s
  // independent O(log n) descents into O(cover + s) grouped work. In
  // parallel mode queries are sharded over a worker pool under per-query
  // RNG substreams; the base implementation shards whole requests over
  // QueryPositions, cover-based subclasses run their grouped kernels per
  // query through CoverExecutor::ExecuteParallel instead.
  virtual void QueryPositionsBatch(std::span<const PositionQuery> queries,
                                   Rng* rng, ScratchArena* arena,
                                   const BatchOptions& opts,
                                   std::vector<size_t>* out) const;

  // Convenience: default options.
  void QueryPositionsBatch(std::span<const PositionQuery> queries, Rng* rng,
                           ScratchArena* arena,
                           std::vector<size_t>* out) const {
    QueryPositionsBatch(queries, rng, arena, BatchOptions{}, out);
  }

  // Heap footprint, for the space experiment (DESIGN.md E4).
  virtual size_t MemoryBytes() const = 0;

  virtual std::string_view name() const = 0;

 protected:
  // `keys` must be strictly increasing and nonempty.
  explicit RangeSampler(std::span<const double> keys);

  // Position-keyed: element i has key i (0 <= i < n, n >= 1), and no key
  // array is stored.
  explicit RangeSampler(size_t n);

  // Empty for a position-keyed sampler.
  std::vector<double> keys_;

 private:
  size_t n_;
};

}  // namespace iqs

#endif  // IQS_RANGE_RANGE_SAMPLER_H_
