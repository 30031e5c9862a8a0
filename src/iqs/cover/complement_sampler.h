// Technique 3 — approximate coverage, on the paper's own example
// (Section 6): complement range queries. For S_q := S \ [x, y], any exact
// cover in a BST needs Ω(log n) canonical nodes for some intervals, but an
// approximate cover of size at most TWO always exists ([18]): the lowest
// left-spine subtree containing the surviving prefix and the lowest
// right-spine subtree containing the surviving suffix. Each spine subtree
// is at most ~2x larger than the part of S_q it covers, so rejection
// sampling (Theorem 6) accepts with probability >= ~1/2 per draw.
//
// This file implements both paths over the same data — the Theorem-5 exact
// cover and the Theorem-6 approximate cover — so tests can confirm the
// identical output law and bench_approx_cover (E7) can measure the
// cover-size and time difference. WR scheme (unit weights), as in the
// paper's Section 6 discussion.

#ifndef IQS_COVER_COMPLEMENT_SAMPLER_H_
#define IQS_COVER_COMPLEMENT_SAMPLER_H_

#include <span>
#include <vector>

#include "iqs/cover/coverage_engine.h"
#include "iqs/range/static_bst.h"
#include "iqs/util/rng.h"

namespace iqs {

class ComplementRangeSampler {
 public:
  // `keys` strictly increasing.
  explicit ComplementRangeSampler(std::span<const double> keys);

  // Draws `s` independent uniform samples from S \ [lo, hi] using the
  // size-<=2 approximate cover + rejection. Appends positions (indices in
  // key order); returns false when the complement is empty or a bound is
  // NaN.
  bool QueryApprox(double lo, double hi, size_t s, Rng* rng,
                   std::vector<size_t>* out) const;

  // Same law via the exact canonical cover (O(log n) pieces, no
  // rejection).
  bool QueryExact(double lo, double hi, size_t s, Rng* rng,
                  std::vector<size_t>* out) const;

  // Cover construction, exposed for tests and the cover-size experiment
  // (E15). Returns pieces over positions; `approx` pieces may include
  // positions inside [a, b] (the excluded zone).
  void BuildApproxCover(size_t a, size_t b,
                        std::vector<CoverRange>* cover) const;
  void BuildExactCover(size_t a, size_t b,
                       std::vector<CoverRange>* cover) const;

  size_t n() const { return keys_.size(); }

  size_t MemoryBytes() const {
    return keys_.capacity() * sizeof(double) + tree_.MemoryBytes() +
           engine_.MemoryBytes();
  }

 private:
  // Maps [lo, hi] to the inclusive position range [a, b] of *excluded*
  // elements; a > b encodes the empty exclusion (an inverted interval, or
  // one between keys): the query degenerates to whole-set sampling.
  // Returns false when the complement is empty or a bound is NaN.
  bool ResolveExcluded(double lo, double hi, size_t* a, size_t* b) const;

  std::vector<double> keys_;
  StaticBst tree_;
  CoverageEngine engine_;
};

}  // namespace iqs

#endif  // IQS_COVER_COMPLEMENT_SAMPLER_H_
