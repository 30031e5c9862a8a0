#include "iqs/range/chunked_range_sampler.h"

#include <bit>
#include <cmath>

#include "iqs/cover/cover_executor.h"
#include "iqs/sampling/multinomial.h"

namespace iqs {

namespace {

// Group tags for the batched path: a query's cover is its q1/q2/q3 split
// (paper Figure 2) — partial-chunk spans drawn categorically, and the
// chunk-aligned middle served through the chunk-level Lemma-2 structure.
constexpr uint64_t kSpanGroup = 0;
constexpr uint64_t kMiddleGroup = 1;

}  // namespace

ChunkedRangeSampler::ChunkedRangeSampler(std::span<const double> keys,
                                         std::span<const double> weights,
                                         size_t chunk_size,
                                         ThreadPool* build_pool)
    : RangeSampler(keys), weights_(weights.begin(), weights.end()) {
  IQS_CHECK(keys.size() == weights.size());
  Build(chunk_size, build_pool);
}

ChunkedRangeSampler::ChunkedRangeSampler(std::span<const double> weights,
                                         size_t chunk_size,
                                         ThreadPool* build_pool)
    : RangeSampler(weights.size()), weights_(weights.begin(), weights.end()) {
  Build(chunk_size, build_pool);
}

void ChunkedRangeSampler::Build(size_t chunk_size, ThreadPool* build_pool) {
  const size_t n = weights_.size();
  chunk_size_ = chunk_size != 0
                    ? chunk_size
                    : std::max<size_t>(1, std::bit_width(n) - 1);  // ~log2 n
  const size_t g = (n + chunk_size_ - 1) / chunk_size_;

  std::vector<double> chunk_weights(g, 0.0);
  chunk_alias_.resize(g);
  // Each chunk's alias table and weight sum depend only on that chunk's
  // slice, so the builds parallelize with no cross-chunk state and the
  // result is bit-identical however they are scheduled.
  auto build_chunks = [&](size_t first, size_t last) {
    std::vector<double> scratch;
    for (size_t c = first; c < last; ++c) {
      const size_t lo = ChunkStart(c);
      const size_t hi = ChunkEnd(c);
      scratch.assign(weights_.begin() + static_cast<ptrdiff_t>(lo),
                     weights_.begin() + static_cast<ptrdiff_t>(hi) + 1);
      chunk_alias_[c].Build(scratch);
      for (double w : scratch) chunk_weights[c] += w;
    }
  };
  // Below ~4 chunks per worker the fan-out costs more than it hides.
  if (build_pool != nullptr && build_pool->num_threads() > 1 &&
      g >= build_pool->num_threads() * 4) {
    ParallelForShards(build_pool, g,
                      [&](size_t first, size_t last, size_t /*worker*/) {
                        build_chunks(first, last);
                      });
  } else {
    build_chunks(0, g);
  }

  chunk_weight_prefix_.assign(g + 1, 0.0);
  for (size_t c = 0; c < g; ++c) {
    chunk_weight_prefix_[c + 1] = chunk_weight_prefix_[c] + chunk_weights[c];
  }

  chunk_level_ = std::make_unique<AugRangeSampler>(chunk_weights);
}

void ChunkedRangeSampler::SampleFromSpan(size_t lo, size_t hi, size_t count,
                                         Rng* rng,
                                         std::vector<size_t>* out) const {
  if (count == 0) return;
  // Spans are at most one chunk (Θ(log n) elements); thread-local scratch
  // keeps the per-query alias build allocation-free in steady state.
  thread_local std::vector<double> span_weights;
  thread_local AliasTable table;
  span_weights.assign(weights_.begin() + static_cast<ptrdiff_t>(lo),
                      weights_.begin() + static_cast<ptrdiff_t>(hi) + 1);
  table.Build(span_weights);
  for (size_t i = 0; i < count; ++i) out->push_back(lo + table.Sample(rng));
}

void ChunkedRangeSampler::QueryPositions(size_t a, size_t b, size_t s,
                                         Rng* rng,
                                         std::vector<size_t>* out) const {
  IQS_CHECK(a <= b && b < n());
  if (s == 0) return;
  out->reserve(out->size() + s);

  const size_t ca = a / chunk_size_;
  const size_t cb = b / chunk_size_;
  if (ca == cb) {
    SampleFromSpan(a, b, s, rng, out);
    return;
  }

  // q1 = [a, end of chunk ca], q2 = full chunks in between, q3 = [start of
  // chunk cb, b] (paper Figure 2).
  const size_t q1_hi = ChunkEnd(ca);
  const size_t q3_lo = ChunkStart(cb);
  double w1 = 0.0;
  for (size_t i = a; i <= q1_hi; ++i) w1 += weights_[i];
  double w3 = 0.0;
  for (size_t i = q3_lo; i <= b; ++i) w3 += weights_[i];
  const bool has_middle = cb > ca + 1;
  const double w2 =
      has_middle ? chunk_weight_prefix_[cb] - chunk_weight_prefix_[ca + 1]
                 : 0.0;

  const double part_weights[3] = {w1, w2, w3};
  const std::vector<uint32_t> counts = MultinomialSplit(part_weights, s, rng);

  SampleFromSpan(a, q1_hi, counts[0], rng, out);
  SampleFromSpan(q3_lo, b, counts[2], rng, out);

  if (counts[1] > 0) {
    IQS_DCHECK(has_middle);
    // Chunk-aligned query: draw chunk ids from the Lemma-2 structure, then
    // one element from each drawn chunk's alias table — O(1) per sample.
    std::vector<size_t> chunk_draws;
    chunk_draws.reserve(counts[1]);
    chunk_level_->QueryPositions(ca + 1, cb - 1, counts[1], rng,
                                 &chunk_draws);
    for (size_t chunk : chunk_draws) {
      out->push_back(ChunkStart(chunk) + chunk_alias_[chunk].Sample(rng));
    }
  }
}

void ChunkedRangeSampler::QueryPositionsBatch(
    std::span<const PositionQuery> queries, Rng* rng, ScratchArena* arena,
    const BatchOptions& opts, std::vector<size_t>* out) const {
  // Cover enumeration only — each query's q1/q2/q3 split becomes 1-3 plan
  // groups — with the CoverExecutor owning the multinomial splits and
  // output layout. The draw backend serves partial-chunk spans by
  // inverse-CDF block draws, and gathers the chunk-aligned middles of ALL
  // queries into a single chunk-level batched call (itself the Lemma-2
  // cross-batch pipeline) followed by one blocked
  // prefetch-then-read pass over every middle draw of the batch: each
  // element draw chains table header -> urn line -> sample, and issuing
  // each stage's loads for a whole block lets the misses of a dependent
  // stage overlap across draws instead of serializing per draw.
  thread_local CoverPlan plan;
  plan.Clear();
  for (const PositionQuery& q : queries) {
    plan.BeginQuery(q.s);
    if (q.s == 0) continue;
    IQS_DCHECK(q.a <= q.b && q.b < n());
    const size_t ca = q.a / chunk_size_;
    const size_t cb = q.b / chunk_size_;
    if (ca == cb) {
      double w = 0.0;
      for (size_t i = q.a; i <= q.b; ++i) w += weights_[i];
      plan.AddGroup(q.a, q.b, w, kSpanGroup);
      continue;
    }
    const size_t q1_hi = ChunkEnd(ca);
    const size_t q3_lo = ChunkStart(cb);
    double w1 = 0.0;
    for (size_t i = q.a; i <= q1_hi; ++i) w1 += weights_[i];
    plan.AddGroup(q.a, q1_hi, w1, kSpanGroup);
    if (cb > ca + 1) {
      const double w2 =
          chunk_weight_prefix_[cb] - chunk_weight_prefix_[ca + 1];
      plan.AddGroup(ChunkStart(ca + 1), ChunkEnd(cb - 1), w2, kMiddleGroup);
    }
    double w3 = 0.0;
    for (size_t i = q3_lo; i <= q.b; ++i) w3 += weights_[i];
    plan.AddGroup(q3_lo, q.b, w3, kSpanGroup);
  }

  if (!opts.sequential()) {
    // Parallel mode: each query draws its own spans and (single) middle
    // group under its substream — the middle goes through the chunk-level
    // structure's sequential path with the query's rng, then the same
    // blocked alias pass, so randomness consumption is a pure function of
    // the query.
    CoverExecutor::ExecuteParallel(
        plan, rng, arena, opts,
        [this](const CoverPlan& p, const CoverSplit& split,
               std::span<size_t> dst, size_t q, size_t /*worker*/, Rng* qrng,
               ScratchArena* wa) {
          const std::span<const CoverGroup> groups = p.groups();
          const std::span<const double> weights(weights_);
          for (size_t g = p.first_group(q); g < p.end_group(q); ++g) {
            const size_t count = split.counts[g];
            if (count == 0) continue;
            if (groups[g].tag == kSpanGroup) {
              CategoricalSampleScratch(
                  weights.subspan(groups[g].lo,
                                  groups[g].hi - groups[g].lo + 1),
                  qrng, wa, groups[g].lo,
                  dst.subspan(split.offsets[g], count));
              continue;
            }
            const PositionQuery middle{groups[g].lo / chunk_size_,
                                       groups[g].hi / chunk_size_, count};
            thread_local std::vector<size_t> chunk_draws;
            chunk_draws.clear();
            chunk_level_->QueryPositionsBatch(
                std::span<const PositionQuery>(&middle, 1), qrng, wa,
                &chunk_draws);
            IQS_DCHECK(chunk_draws.size() == count);
            const std::span<const AliasTable*> tables =
                wa->Alloc<const AliasTable*>(count);
            const std::span<size_t> bases = wa->Alloc<size_t>(count);
            for (size_t i = 0; i < count; ++i) {
              const size_t chunk = chunk_draws[i];
              tables[i] = &chunk_alias_[chunk];
              __builtin_prefetch(tables[i]);
              bases[i] = ChunkStart(chunk);
            }
            AliasTable::SampleTargets(tables, bases, qrng,
                                      dst.subspan(split.offsets[g], count));
          }
        },
        out);
    return;
  }

  CoverExecutor::Execute(
      plan, rng, arena, opts,
      [&](const CoverPlan& p, const CoverSplit& split, std::span<size_t> dst) {
        const std::span<const CoverGroup> groups = p.groups();
        const std::span<const double> weights(weights_);

        // Partial-chunk spans: block inverse-CDF draws straight into the
        // group's slice. Also count the middle work for the second stage.
        size_t num_middles = 0;
        size_t middle_total = 0;
        for (size_t g = 0; g < groups.size(); ++g) {
          if (split.counts[g] == 0) continue;
          if (groups[g].tag == kMiddleGroup) {
            ++num_middles;
            middle_total += split.counts[g];
            continue;
          }
          CategoricalSampleScratch(
              weights.subspan(groups[g].lo, groups[g].hi - groups[g].lo + 1),
              rng, arena, groups[g].lo,
              dst.subspan(split.offsets[g], split.counts[g]));
        }
        if (middle_total == 0) return;

        // Chunk-aligned middles of the whole batch in one chunk-level
        // batched call; middle_dst[i] remembers where draw i lands.
        const std::span<PositionQuery> middle_queries =
            arena->Alloc<PositionQuery>(num_middles);
        const std::span<size_t> middle_dst =
            arena->Alloc<size_t>(middle_total);
        size_t mq = 0;
        size_t md = 0;
        for (size_t g = 0; g < groups.size(); ++g) {
          if (groups[g].tag != kMiddleGroup || split.counts[g] == 0) continue;
          middle_queries[mq++] =
              PositionQuery{groups[g].lo / chunk_size_,
                            groups[g].hi / chunk_size_,
                            static_cast<size_t>(split.counts[g])};
          for (uint32_t k = 0; k < split.counts[g]; ++k) {
            middle_dst[md++] = split.offsets[g] + k;
          }
        }
        IQS_DCHECK(md == middle_total);
        thread_local std::vector<size_t> chunk_draws;
        chunk_draws.clear();
        chunk_level_->QueryPositionsBatch(middle_queries, rng, arena,
                                          &chunk_draws);
        IQS_DCHECK(chunk_draws.size() == middle_total);

        // Draw contiguously through the shared pipeline, then scatter to
        // each middle draw's slot (the scatter consumes no randomness).
        const std::span<const AliasTable*> tables =
            arena->Alloc<const AliasTable*>(middle_total);
        const std::span<size_t> bases = arena->Alloc<size_t>(middle_total);
        for (size_t i = 0; i < middle_total; ++i) {
          const size_t chunk = chunk_draws[i];
          tables[i] = &chunk_alias_[chunk];
          __builtin_prefetch(tables[i]);
          bases[i] = ChunkStart(chunk);
        }
        const std::span<size_t> middle_out =
            arena->Alloc<size_t>(middle_total);
        AliasTable::SampleTargets(tables, bases, rng, middle_out);
        for (size_t i = 0; i < middle_total; ++i) {
          dst[middle_dst[i]] = middle_out[i];
        }
      },
      out);
}

size_t ChunkedRangeSampler::MemoryBytes() const {
  size_t bytes = keys_.capacity() * sizeof(double) +
                 weights_.capacity() * sizeof(double) +
                 chunk_alias_.capacity() * sizeof(AliasTable) +
                 chunk_weight_prefix_.capacity() * sizeof(double);
  for (const AliasTable& table : chunk_alias_) bytes += table.MemoryBytes();
  if (chunk_level_ != nullptr) bytes += chunk_level_->MemoryBytes();
  return bytes;
}

}  // namespace iqs
