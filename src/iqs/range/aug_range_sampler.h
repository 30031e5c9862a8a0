// Technique 1 — alias augmentation (paper Section 4.1, Lemma 2).
//
// Every node u of the BST stores an alias table over S(u), the elements in
// its subtree. Tables at one tree level total O(n) space, so the whole
// structure takes O(n log n). A query finds the canonical cover
// (O(log n)), splits the sample budget across cover nodes with an on-the-
// fly alias table (O(log n + s)), and then draws each sample from the
// cover node's prebuilt table in O(1) — total O(log n + s).

#ifndef IQS_RANGE_AUG_RANGE_SAMPLER_H_
#define IQS_RANGE_AUG_RANGE_SAMPLER_H_

#include <span>
#include <vector>

#include "iqs/alias/alias_table.h"
#include "iqs/range/range_sampler.h"
#include "iqs/range/static_bst.h"

namespace iqs {

class CoverPlan;
struct CoverSplit;

class AugRangeSampler : public RangeSampler {
 public:
  AugRangeSampler(std::span<const double> keys,
                  std::span<const double> weights);

  // Position-keyed (keys 0, 1, ..., n-1, none stored) — used by Theorem 3's
  // chunk-level structure, where "keys" are chunk numbers.
  explicit AugRangeSampler(std::span<const double> weights);

  void QueryPositions(size_t a, size_t b, size_t s, Rng* rng,
                      std::vector<size_t>* out) const override;

  // Batched fast path: enumerates canonical covers into a CoverPlan for
  // the shared CoverExecutor; the draw backend pipelines prefetched urn
  // loads from the prebuilt per-node alias tables — across the whole
  // batch when sequential, per query under substreams when parallel.
  using RangeSampler::QueryPositionsBatch;
  void QueryPositionsBatch(std::span<const PositionQuery> queries, Rng* rng,
                           ScratchArena* arena, const BatchOptions& opts,
                           std::vector<size_t>* out) const override;

  size_t MemoryBytes() const override;

  std::string_view name() const override { return "alias-augmented"; }

 private:
  void BuildNodeAliases(std::span<const double> weights);

  // Blocked prefetch-then-read alias pipeline over the plan groups
  // [first_group, end_group), writing dst[split.offsets[g] ..) for each.
  // `dst` is the batch-flat destination; scratch comes from `arena`.
  void DrawGroupedAlias(const CoverPlan& plan, const CoverSplit& split,
                        size_t first_group, size_t end_group,
                        std::span<size_t> dst, Rng* rng,
                        ScratchArena* arena) const;

  StaticBst tree_;
  // node_alias_[u] samples a position offset within [RangeLo(u),
  // RangeHi(u)]; leaves have empty tables (they are their own sample).
  std::vector<AliasTable> node_alias_;
};

}  // namespace iqs

#endif  // IQS_RANGE_AUG_RANGE_SAMPLER_H_
