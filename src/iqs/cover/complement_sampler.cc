#include "iqs/cover/complement_sampler.h"

#include <algorithm>
#include <cmath>

#include "iqs/util/check.h"

namespace iqs {

ComplementRangeSampler::ComplementRangeSampler(std::span<const double> keys)
    : keys_(keys.begin(), keys.end()),
      tree_(std::vector<double>(keys.size(), 1.0)),
      engine_(std::vector<double>(keys.size(), 1.0)) {
  IQS_CHECK(!keys_.empty());
  // iqs-lint: allow(check-in-loop) -- cold build-path input validation
  for (size_t i = 1; i < keys_.size(); ++i) IQS_CHECK(keys_[i - 1] < keys_[i]);
}

bool ComplementRangeSampler::ResolveExcluded(double lo, double hi, size_t* a,
                                             size_t* b) const {
  if (std::isnan(lo) || std::isnan(hi)) return false;  // not an interval
  const auto first = std::lower_bound(keys_.begin(), keys_.end(), lo);
  const auto last = std::upper_bound(first, keys_.end(), hi);
  if (first == last || lo > hi) {
    // Nothing excluded.
    *a = 1;
    *b = 0;
    return true;
  }
  *a = static_cast<size_t>(first - keys_.begin());
  *b = static_cast<size_t>(last - keys_.begin()) - 1;
  // Complement empty only if everything is excluded.
  return !(*a == 0 && *b == keys_.size() - 1);
}

void ComplementRangeSampler::BuildApproxCover(
    size_t a, size_t b, std::vector<CoverRange>* cover) const {
  const size_t n = keys_.size();
  if (a > b) {  // nothing excluded: the root covers S_q = S exactly
    cover->push_back({0, n - 1, static_cast<double>(n)});
    return;
  }
  // Surviving prefix is positions [0, a-1]: take the lowest left-spine
  // subtree containing it. Spine subtrees have ranges [0, RangeHi]; the
  // lowest with RangeHi >= a-1 has size < 2a (midpoint splits), giving the
  // >= 1/2 density Theorem 6 needs.
  if (a > 0) {
    StaticBst::NodeId u = tree_.root();
    while (!tree_.IsLeaf(u) &&
           tree_.RangeHi(tree_.LeftChild(u)) >= a - 1) {
      u = tree_.LeftChild(u);
    }
    cover->push_back({tree_.RangeLo(u), tree_.RangeHi(u),
                      static_cast<double>(tree_.RangeHi(u) -
                                          tree_.RangeLo(u) + 1)});
  }
  // Surviving suffix is positions [b+1, n-1]: lowest right-spine subtree
  // containing it.
  if (b + 1 < n) {
    StaticBst::NodeId u = tree_.root();
    while (!tree_.IsLeaf(u) &&
           tree_.RangeLo(tree_.RightChild(u)) <= b + 1) {
      u = tree_.RightChild(u);
    }
    cover->push_back({tree_.RangeLo(u), tree_.RangeHi(u),
                      static_cast<double>(tree_.RangeHi(u) -
                                          tree_.RangeLo(u) + 1)});
  }
}

void ComplementRangeSampler::BuildExactCover(
    size_t a, size_t b, std::vector<CoverRange>* cover) const {
  const size_t n = keys_.size();
  std::vector<StaticBst::NodeId> nodes;
  if (a > b) {
    tree_.CanonicalCover(0, n - 1, &nodes);
  } else {
    if (a > 0) tree_.CanonicalCover(0, a - 1, &nodes);
    if (b + 1 < n) tree_.CanonicalCover(b + 1, n - 1, &nodes);
  }
  for (StaticBst::NodeId u : nodes) {
    cover->push_back({tree_.RangeLo(u), tree_.RangeHi(u),
                      tree_.NodeWeight(u)});
  }
}

bool ComplementRangeSampler::QueryApprox(double lo, double hi, size_t s,
                                         Rng* rng,
                                         std::vector<size_t>* out) const {
  size_t a = 0;
  size_t b = 0;
  if (!ResolveExcluded(lo, hi, &a, &b)) return false;
  std::vector<CoverRange> cover;
  BuildApproxCover(a, b, &cover);
  const bool excluded_nonempty = a <= b;
  engine_.SampleWithRejection(
      cover, s,
      [&](size_t p) { return !excluded_nonempty || p < a || p > b; }, rng,
      out);
  return true;
}

bool ComplementRangeSampler::QueryExact(double lo, double hi, size_t s,
                                        Rng* rng,
                                        std::vector<size_t>* out) const {
  size_t a = 0;
  size_t b = 0;
  if (!ResolveExcluded(lo, hi, &a, &b)) return false;
  std::vector<CoverRange> cover;
  BuildExactCover(a, b, &cover);
  engine_.Sample(cover, s, rng, out);
  return true;
}

}  // namespace iqs
