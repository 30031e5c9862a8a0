// Fenwick (binary indexed) tree: point update, prefix sum, range sum, and
// weighted search — the "range sum structure" of paper Section 4.2, the
// backbone of the O(log n) dynamic sampler, and (over 0/1 counts) the
// active-set index of the join sweep.
//
// Fenwick<T, Sum> stores cells of type T and accumulates prefix sums and
// search targets in Sum. FenwickTree (doubles) serves weights; the join
// sampler's Fenwick<uint32_t, uint64_t> keeps half-width count cells so
// the hot sweep loop stays in cache, with exact integer selection.

#ifndef IQS_RANGE_FENWICK_TREE_H_
#define IQS_RANGE_FENWICK_TREE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "iqs/util/check.h"

namespace iqs {

template <typename T, typename Sum = T>
class Fenwick {
 public:
  Fenwick() = default;

  // A tree over `n` zero-initialized positions.
  explicit Fenwick(size_t n) : tree_(n + 1, T{}) {}

  // O(n) bulk construction from initial values.
  explicit Fenwick(std::span<const T> values) : tree_(values.size() + 1, T{}) {
    for (size_t i = 0; i < values.size(); ++i) tree_[i + 1] = values[i];
    for (size_t i = 1; i < tree_.size(); ++i) {
      const size_t parent = i + (i & (~i + 1));
      if (parent < tree_.size()) tree_[parent] += tree_[i];
    }
  }

  size_t size() const { return tree_.empty() ? 0 : tree_.size() - 1; }

  // Adds `delta` to position `i` (0-based). O(log n). Unsigned cells wrap,
  // so adding T(0) - d subtracts d; the tree stays exact as long as every
  // position's true value is non-negative.
  void Add(size_t i, T delta) {
    IQS_DCHECK(i < size());
    for (size_t j = i + 1; j < tree_.size(); j += j & (~j + 1)) {
      tree_[j] += delta;
    }
  }

  // Sum of positions [0, i) — i.e. the first `i` values. O(log n).
  Sum PrefixSum(size_t i) const {
    IQS_DCHECK(i <= size());
    Sum sum{};
    for (size_t j = i; j > 0; j -= j & (~j + 1)) sum += tree_[j];
    return sum;
  }

  // Sum of positions [lo, hi] inclusive. O(log n).
  Sum RangeSum(size_t lo, size_t hi) const {
    IQS_DCHECK(lo <= hi && hi < size());
    return PrefixSum(hi + 1) - PrefixSum(lo);
  }

  Sum TotalSum() const { return PrefixSum(size()); }

  // Returns the smallest index i such that PrefixSum(i + 1) > target,
  // i.e. the position selected by mass `target` in [0, TotalSum()); over
  // counts, the position of the (target+1)-th unit. O(log n) via
  // top-down descent over the implicit tree.
  size_t SearchPrefix(Sum target) const {
    IQS_DCHECK(size() > 0);
    size_t pos = 0;
    size_t mask = 1;
    while ((mask << 1) <= size()) mask <<= 1;
    for (; mask > 0; mask >>= 1) {
      const size_t next = pos + mask;
      if (next < tree_.size() && tree_[next] <= target) {
        target -= tree_[next];
        pos = next;
      }
    }
    // pos is the count of positions whose cumulative mass is <= target.
    return pos < size() ? pos : size() - 1;
  }

  size_t MemoryBytes() const { return tree_.capacity() * sizeof(T); }

 private:
  std::vector<T> tree_;
};

using FenwickTree = Fenwick<double>;

}  // namespace iqs

#endif  // IQS_RANGE_FENWICK_TREE_H_
