#include "iqs/range/aug_range_sampler.h"

#include <algorithm>

#include "iqs/cover/cover_executor.h"
#include "iqs/sampling/multinomial.h"

namespace iqs {

AugRangeSampler::AugRangeSampler(std::span<const double> keys,
                                 std::span<const double> weights)
    : RangeSampler(keys), tree_(weights) {
  IQS_CHECK(keys.size() == weights.size());
  BuildNodeAliases(weights);
}

AugRangeSampler::AugRangeSampler(std::span<const double> weights)
    : RangeSampler(weights.size()), tree_(weights) {
  BuildNodeAliases(weights);
}

void AugRangeSampler::BuildNodeAliases(std::span<const double> weights) {
  node_alias_.resize(tree_.num_nodes());
  std::vector<double> scratch;
  for (StaticBst::NodeId u = 0; u < tree_.num_nodes(); ++u) {
    if (tree_.IsLeaf(u)) continue;
    const size_t lo = tree_.RangeLo(u);
    const size_t hi = tree_.RangeHi(u);
    scratch.assign(weights.begin() + static_cast<ptrdiff_t>(lo),
                   weights.begin() + static_cast<ptrdiff_t>(hi) + 1);
    node_alias_[u].Build(scratch);
  }
}

void AugRangeSampler::QueryPositions(size_t a, size_t b, size_t s, Rng* rng,
                                     std::vector<size_t>* out) const {
  IQS_CHECK(a <= b && b < n());
  if (s == 0) return;
  // Per-call temporaries hoisted into thread-local scratch (see
  // BstRangeSampler::QueryPositions).
  thread_local std::vector<StaticBst::NodeId> cover;
  thread_local std::vector<double> cover_weights;
  cover.clear();
  tree_.CanonicalCover(a, b, &cover);

  cover_weights.clear();
  cover_weights.reserve(cover.size());
  for (StaticBst::NodeId u : cover) {
    cover_weights.push_back(tree_.NodeWeight(u));
  }
  const std::vector<uint32_t> counts = MultinomialSplit(cover_weights, s, rng);

  out->reserve(out->size() + s);
  for (size_t i = 0; i < cover.size(); ++i) {
    const StaticBst::NodeId u = cover[i];
    const size_t lo = tree_.RangeLo(u);
    if (tree_.IsLeaf(u)) {
      for (uint32_t k = 0; k < counts[i]; ++k) out->push_back(lo);
      continue;
    }
    const AliasTable& table = node_alias_[u];
    for (uint32_t k = 0; k < counts[i]; ++k) {
      out->push_back(lo + table.Sample(rng));
    }
  }
}

void AugRangeSampler::DrawGroupedAlias(const CoverPlan& plan,
                                       const CoverSplit& split,
                                       size_t first_group, size_t end_group,
                                       std::span<size_t> dst, Rng* rng,
                                       ScratchArena* arena) const {
  const size_t base = split.offsets[first_group];
  const size_t total = split.offsets[end_group] - base;
  if (total == 0) return;
  const std::span<const AliasTable*> tables =
      arena->Alloc<const AliasTable*>(total);
  const std::span<size_t> bases = arena->Alloc<size_t>(total);
  const std::span<const CoverGroup> groups = plan.groups();
  size_t d = 0;
  for (size_t g = first_group; g < end_group; ++g) {
    const auto u = static_cast<StaticBst::NodeId>(groups[g].tag);
    const AliasTable* table = tree_.IsLeaf(u) ? nullptr : &node_alias_[u];
    const size_t lo = groups[g].lo;
    for (uint32_t k = 0; k < split.counts[g]; ++k) {
      tables[d] = table;
      bases[d] = lo;
      ++d;
    }
  }
  IQS_DCHECK(d == total);

  AliasTable::SampleTargets(tables, bases, rng, dst.subspan(base, total));
}

void AugRangeSampler::QueryPositionsBatch(
    std::span<const PositionQuery> queries, Rng* rng, ScratchArena* arena,
    const BatchOptions& opts, std::vector<size_t>* out) const {
  // Cover enumeration only; the CoverExecutor owns the multinomial split
  // and output layout. The draw backend flattens the per-node urn picks
  // of EVERY query into one cross-batch pipeline: a planning pass records
  // (table, base) per draw, then fixed-size blocks run urn-index
  // generation + prefetch for the whole block before any urn is read. The
  // urn loads — the only cache misses on this path — therefore overlap
  // across all queries of the batch instead of serializing inside each
  // cover node's little group.
  thread_local CoverPlan plan;
  plan.Clear();
  const size_t max_cover = tree_.MaxCoverSize();
  const std::span<StaticBst::NodeId> cover =
      arena->Alloc<StaticBst::NodeId>(max_cover);
  for (const PositionQuery& q : queries) {
    plan.BeginQuery(q.s);
    if (q.s == 0) continue;
    IQS_DCHECK(q.a <= q.b && q.b < n());
    const size_t t = tree_.CanonicalCover(q.a, q.b, cover);
    for (size_t i = 0; i < t; ++i) {
      const StaticBst::NodeId u = cover[i];
      plan.AddGroup(tree_.RangeLo(u), tree_.RangeHi(u), tree_.NodeWeight(u),
                    u);
    }
  }

  if (!opts.sequential()) {
    // Parallel mode: the same blocked urn pipeline, run per query under
    // the query's substream (the pipeline is then shorter — one query's
    // draws — but shards of queries still overlap their misses).
    CoverExecutor::ExecuteParallel(
        plan, rng, arena, opts,
        [this](const CoverPlan& p, const CoverSplit& split,
               std::span<size_t> dst, size_t q, size_t /*worker*/, Rng* qrng,
               ScratchArena* wa) {
          DrawGroupedAlias(p, split, p.first_group(q), p.end_group(q), dst,
                           qrng, wa);
        },
        out);
    return;
  }

  CoverExecutor::Execute(
      plan, rng, arena, opts,
      [&](const CoverPlan& p, const CoverSplit& split, std::span<size_t> dst) {
        DrawGroupedAlias(p, split, 0, p.num_groups(), dst, rng, arena);
      },
      out);
}

size_t AugRangeSampler::MemoryBytes() const {
  size_t bytes = tree_.MemoryBytes() + keys_.capacity() * sizeof(double) +
                 node_alias_.capacity() * sizeof(AliasTable);
  for (const AliasTable& table : node_alias_) bytes += table.MemoryBytes();
  return bytes;
}

}  // namespace iqs
