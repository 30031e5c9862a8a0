// The alias method for weighted set sampling (paper Section 3.1, Theorem 1).
//
// Given n positive weights w(1..n), the structure occupies O(n) space, is
// built in O(n) time, and draws one independent weighted sample — index i
// with probability w(i) / sum(w) — in O(1) worst-case time. Every call to
// Sample() consumes fresh randomness, so samples across calls (and hence
// across queries built on top of this structure) are mutually independent.
//
// This is the foundation of every other structure in the library: alias
// augmentation (Section 4) stores alias tables at tree nodes, the coverage
// techniques (Sections 5-6) build a table on the fly over a query's cover,
// and the chunked structure (Theorem 3) keeps one per chunk.

#ifndef IQS_ALIAS_ALIAS_TABLE_H_
#define IQS_ALIAS_ALIAS_TABLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "iqs/util/rng.h"

namespace iqs {

class AliasTable {
 public:
  // An empty table; Sample() must not be called until Build().
  AliasTable() = default;

  // Builds the table over `weights`; equivalent to Build(weights).
  // All weights must be nonnegative with a finite, positive sum.
  explicit AliasTable(std::span<const double> weights) { Build(weights); }

  AliasTable(const AliasTable&) = default;
  AliasTable& operator=(const AliasTable&) = default;
  AliasTable(AliasTable&&) = default;
  AliasTable& operator=(AliasTable&&) = default;

  // (Re)builds the table in O(n) time using Vose's stable variant of
  // Walker's urn construction: every "urn" holds at most two indices whose
  // assigned probability mass sums to 1/n (paper Section 3.1).
  void Build(std::span<const double> weights);

  // Draws one weighted sample: returns i with probability w(i) / sum(w).
  // O(1) worst case: one urn pick plus one biased coin.
  size_t Sample(Rng* rng) const {
    IQS_DCHECK(!urns_.empty());
    const size_t urn = static_cast<size_t>(rng->Below(urns_.size()));
    const Urn& u = urns_[urn];
    return rng->NextDouble() < u.primary_prob ? u.primary : u.alias;
  }

  // Draws `count` independent samples, appending them to `out`.
  // Reserves once and draws through the block path below.
  void SampleMany(size_t count, Rng* rng, std::vector<size_t>* out) const;

  // Block-sampling fast path: fills `out` with independent samples, each
  // offset by `base` (callers sampling within a subrange pass its start).
  // Consumes randomness through Rng::FillBelow / Rng::FillDoubles in
  // fixed-size stack blocks, so the urn-lookup loop has no per-draw RNG
  // state round-trips, and software-prefetches urns a fixed distance
  // ahead — on tables bigger than cache the random urn loads then miss
  // concurrently instead of one at a time. Per-sample distribution
  // identical to Sample().
  //
  // Under a SIMD backend (simd/dispatch.h) large blocks run the fused
  // vector kernel — urn pick, coin, urn gather, and compare-blend select
  // all in-register, one Rng word consumed per vector block as the lane
  // seed. Same per-sample law (chi-squared in simd_kernels_test); the
  // scalar backend keeps the bit-stable blocked loop.
  void SampleBlock(Rng* rng, size_t base, std::span<size_t> out) const;

  // Heterogeneous blocked pipeline over per-draw (table, base) pairs —
  // the shared inner loop of the cover-layer grouped draws
  // (AugRangeSampler per-node urns, ChunkedRangeSampler per-chunk urns):
  // out[i] = bases[i] + one draw from *tables[i], or just bases[i] when
  // tables[i] is null (degenerate single-element group). Blocked like
  // SampleBlock (coins for a block up front, urn picks + prefetch for the
  // whole block before any urn line is read) so the dependent misses of
  // different draws overlap; SIMD backends gather through per-lane table
  // addresses instead. Scalar randomness consumption is exactly the
  // historical blocked loops': FillDoubles per block, then one Below per
  // non-null draw.
  static void SampleTargets(std::span<const AliasTable* const> tables,
                            std::span<const size_t> bases, Rng* rng,
                            std::span<size_t> out);

  // Decomposed sampling for caller-managed prefetch pipelines (e.g. the
  // chunked sampler's middle-chunk loop): resolve an urn pick made with
  // caller-supplied randomness. `urn` must be < size(), `coin` in [0, 1);
  // with uniform inputs the result distribution equals Sample().
  size_t SampleAt(uint64_t urn, double coin) const {
    const Urn& u = urns_[urn];
    return coin < u.primary_prob ? u.primary : u.alias;
  }

  // Requests the cache line holding urn `i`.
  void PrefetchUrn(uint64_t i) const { __builtin_prefetch(&urns_[i]); }

  bool empty() const { return urns_.empty(); }
  size_t size() const { return urns_.size(); }
  double total_weight() const { return total_weight_; }

  // Heap footprint in bytes (for the space experiments, DESIGN.md E4).
  size_t MemoryBytes() const { return urns_.capacity() * sizeof(Urn); }

 private:
  struct Urn {
    // Probability of returning `primary` given this urn was picked;
    // otherwise return `alias`.
    double primary_prob = 1.0;
    uint32_t primary = 0;
    uint32_t alias = 0;
  };

  std::vector<Urn> urns_;
  double total_weight_ = 0.0;
};

}  // namespace iqs

#endif  // IQS_ALIAS_ALIAS_TABLE_H_
