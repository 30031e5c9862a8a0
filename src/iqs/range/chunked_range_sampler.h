// Theorem 3 — the linear-space weighted range sampler (paper Section 4.2).
//
// The positions are cut into g = Θ(n / log n) chunks of Θ(log n) elements.
// Three components give O(n) total space:
//   * a Lemma-2 structure (AugRangeSampler) over the g chunk weights:
//     O(g log g) = O(n),
//   * one alias table per chunk: O(n),
//   * chunk-weight prefix sums standing in for the paper's range-sum BST
//     (the data is static, so prefix sums give the same O(log n)-or-better
//     range sums in O(g) space).
//
// A query [a, b] splits into a partial head chunk q1, a chunk-aligned
// middle q2, and a partial tail chunk q3 (paper Figure 2). The sample
// budget is divided Multinomial(s; w1, w2, w3); q1/q3 are materialized by
// scanning O(log n) elements, and q2 samples come from the chunk-level
// structure followed by an O(1) per-sample draw from the chosen chunk's
// alias table. Total: O(log n + s) time, O(n) space.

#ifndef IQS_RANGE_CHUNKED_RANGE_SAMPLER_H_
#define IQS_RANGE_CHUNKED_RANGE_SAMPLER_H_

#include <memory>
#include <span>
#include <vector>

#include "iqs/alias/alias_table.h"
#include "iqs/range/aug_range_sampler.h"
#include "iqs/range/range_sampler.h"

namespace iqs {

class ChunkedRangeSampler : public RangeSampler {
 public:
  // `chunk_size` of 0 picks the default Θ(log n). A non-null `build_pool`
  // runs the per-chunk alias-table builds as one ParallelFor over the
  // pool's workers (chunks are independent, so the built structure is
  // bit-identical to a sequential build); the pool is used only inside
  // the constructor and must not be mid-ParallelFor. This is how the
  // versioned samplers rebuild components off the serving threads.
  ChunkedRangeSampler(std::span<const double> keys,
                      std::span<const double> weights, size_t chunk_size = 0,
                      ThreadPool* build_pool = nullptr);

  // Position-keyed (keys 0, 1, ..., n-1, none stored): the form every
  // composition over positions uses (range-tree nodes, Lemma 4, coverage).
  explicit ChunkedRangeSampler(std::span<const double> weights,
                               size_t chunk_size = 0,
                               ThreadPool* build_pool = nullptr);

  void QueryPositions(size_t a, size_t b, size_t s, Rng* rng,
                      std::vector<size_t>* out) const override;

  // Batched fast path: enumerates each query's q1/q2/q3 split into a
  // CoverPlan served by the shared CoverExecutor — block draws for the
  // partial chunks, and chunk-aligned middles served through the
  // chunk-level structure plus a blocked alias pipeline (gathered across
  // the whole batch when sequential, per query under substreams when
  // parallel).
  using RangeSampler::QueryPositionsBatch;
  void QueryPositionsBatch(std::span<const PositionQuery> queries, Rng* rng,
                           ScratchArena* arena, const BatchOptions& opts,
                           std::vector<size_t>* out) const override;

  size_t MemoryBytes() const override;

  std::string_view name() const override { return "chunked-linear-space"; }

  size_t chunk_size() const { return chunk_size_; }
  size_t num_chunks() const { return chunk_alias_.size(); }

 private:
  size_t ChunkStart(size_t chunk) const { return chunk * chunk_size_; }
  size_t ChunkEnd(size_t chunk) const {  // inclusive
    return std::min(ChunkStart(chunk) + chunk_size_, weights_.size()) - 1;
  }

  // Builds the chunk tables, prefixes and chunk-level structure.
  void Build(size_t chunk_size, ThreadPool* build_pool);

  // Draws `count` weighted samples from positions [lo, hi] (all within one
  // chunk) by scanning, appending to `out`.
  void SampleFromSpan(size_t lo, size_t hi, size_t count, Rng* rng,
                      std::vector<size_t>* out) const;

  std::vector<double> weights_;
  size_t chunk_size_ = 0;
  std::vector<AliasTable> chunk_alias_;
  std::vector<double> chunk_weight_prefix_;  // prefix_[i] = sum of chunks < i
  std::unique_ptr<AugRangeSampler> chunk_level_;
};

}  // namespace iqs

#endif  // IQS_RANGE_CHUNKED_RANGE_SAMPLER_H_
