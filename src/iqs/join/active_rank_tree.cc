#include "iqs/join/active_rank_tree.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <vector>

#include "iqs/cover/cover_plan.h"
#include "iqs/multidim/point.h"
#include "iqs/util/check.h"
#include "iqs/util/rng.h"
#include "iqs/util/scratch_arena.h"

namespace iqs::join {

// Adding it to a uint32 Fenwick cell subtracts 1 (cells wrap mod 2^32).
constexpr uint32_t kMinusOne = ~uint32_t{0};

void ActiveSetSampler::QueryPositions(size_t a, size_t b, size_t s, Rng* rng,
                                      std::vector<size_t>* out) const {
  IQS_DCHECK(a <= b && b < fenwick_->size());
  const uint64_t below = fenwick_->PrefixSum(a);
  const uint64_t count = fenwick_->PrefixSum(b + 1) - below;
  IQS_DCHECK(count > 0);  // cover groups carry weight = live active count
  // Block the uniform draws through FillBelow (the shared block path),
  // then resolve each to the k-th active slot of the range.
  constexpr size_t kDrawBlock = 64;
  uint64_t block[kDrawBlock];
  size_t done = 0;
  while (done < s) {
    const size_t chunk = std::min(s - done, kDrawBlock);
    rng->FillBelow(count, std::span<uint64_t>(block, chunk));
    for (size_t i = 0; i < chunk; ++i) {
      out->push_back(fenwick_->SearchPrefix(below + block[i]));
    }
    done += chunk;
  }
}

void ActiveSetSampler::QueryPositionsBatch(
    std::span<const PositionQuery> queries, Rng* rng, ScratchArena* arena,
    const BatchOptions& opts, std::vector<size_t>* out) const {
  (void)arena;
  (void)opts;  // the leaf draw is sequential; parallelism lives above us
  for (const PositionQuery& q : queries) {
    QueryPositions(q.a, q.b, q.s, rng, out);
  }
}

size_t ActiveSetSampler::MemoryBytes() const {
  return keys().capacity() * sizeof(double);  // fenwick charged to the tree
}

ActiveRankTree::ActiveRankTree(std::span<const multidim::Rect> rects,
                               size_t branching)
    : branching_(branching), m_(rects.size()) {
  IQS_CHECK(branching_ >= 2);
  if (m_ == 0) return;  // degenerate tree: no slots, no sampler

  // Level sizes 1, B, B^2, ... until one more level of blocks could not
  // shrink the digit count: B^(levels-1) * B >= m bounds every prefix
  // decomposition by `branching_` blocks per level.
  block_size_.push_back(1);
  while (block_size_.back() * branching_ < m_) {
    block_size_.push_back(block_size_.back() * branching_);
  }
  levels_ = block_size_.size();

  // Rank-space embedding: ylo order is (y_lo, id) ascending. Ties broken
  // by id keep every derived order a deterministic function of the input.
  std::vector<uint32_t> ylo_order(m_);
  std::iota(ylo_order.begin(), ylo_order.end(), 0u);
  std::sort(ylo_order.begin(), ylo_order.end(),
            [&rects](uint32_t a, uint32_t b) {
              if (rects[a].y_lo != rects[b].y_lo) {
                return rects[a].y_lo < rects[b].y_lo;
              }
              return a < b;
            });

  ylo_by_rank_.resize(m_);
  ylo_pos_of_id_.resize(m_);
  for (size_t pos = 0; pos < m_; ++pos) {
    ylo_by_rank_[pos] = rects[ylo_order[pos]].y_lo;
    ylo_pos_of_id_[ylo_order[pos]] = static_cast<uint32_t>(pos);
  }

  // Global slot space: level k owns [k*m, (k+1)*m); block j of level k
  // owns the slots of ylo-positions [j*B^k, min((j+1)*B^k, m)), its
  // elements re-sorted by (y_hi, id).
  const size_t num_slots = levels_ * m_;
  ids_by_slot_.resize(num_slots);
  yhi_by_slot_.resize(num_slots);
  slot_of_.resize(num_slots);
  std::vector<uint32_t> scratch;
  for (size_t level = 0; level < levels_; ++level) {
    const size_t block = block_size_[level];
    for (size_t first = 0; first < m_; first += block) {
      const size_t end = std::min(first + block, m_);
      scratch.assign(ylo_order.begin() + first, ylo_order.begin() + end);
      std::sort(scratch.begin(), scratch.end(),
                [&rects](uint32_t a, uint32_t b) {
                  if (rects[a].y_hi != rects[b].y_hi) {
                    return rects[a].y_hi < rects[b].y_hi;
                  }
                  return a < b;
                });
      const size_t base = SlotBase(level, first);
      for (size_t i = 0; i < scratch.size(); ++i) {
        const uint32_t id = scratch[i];
        const size_t slot = base + i;
        ids_by_slot_[slot] = id;
        yhi_by_slot_[slot] = rects[id].y_hi;
        slot_of_[static_cast<size_t>(ylo_pos_of_id_[id]) * levels_ + level] =
            static_cast<uint32_t>(slot);
      }
    }
  }

  fenwick_ = ActivityCounts(num_slots);
  {
    // The RangeSampler base keeps its own copy of the iota slot keys.
    std::vector<double> slot_keys(num_slots);
    std::iota(slot_keys.begin(), slot_keys.end(), 0.0);
    sampler_ = std::unique_ptr<ActiveSetSampler>(
        new ActiveSetSampler(slot_keys, &fenwick_));
  }

  // The counting side: a second rank order on (y_hi, id), plus one
  // activity Fenwick per endpoint order (see CountActive).
  std::vector<uint32_t> yhi_order(m_);
  std::iota(yhi_order.begin(), yhi_order.end(), 0u);
  std::sort(yhi_order.begin(), yhi_order.end(),
            [&rects](uint32_t a, uint32_t b) {
              if (rects[a].y_hi != rects[b].y_hi) {
                return rects[a].y_hi < rects[b].y_hi;
              }
              return a < b;
            });
  yhi_by_rank_.resize(m_);
  yhi_pos_of_id_.resize(m_);
  for (size_t pos = 0; pos < m_; ++pos) {
    yhi_by_rank_[pos] = rects[yhi_order[pos]].y_hi;
    yhi_pos_of_id_[yhi_order[pos]] = static_cast<uint32_t>(pos);
  }
  ylo_count_ = ActivityCounts(m_);
  yhi_count_ = ActivityCounts(m_);
}

void ActiveRankTree::Activate(uint32_t id, Side side) {
  Flip(id, side, 1);
}

void ActiveRankTree::Deactivate(uint32_t id, Side side) {
  Flip(id, side, kMinusOne);
}

void ActiveRankTree::Flip(uint32_t id, Side side, uint32_t delta) {
  IQS_DCHECK(id < m_);
  if (side == Side::kCounting) {
    ylo_count_.Add(ylo_pos_of_id_[id], delta);
    yhi_count_.Add(yhi_pos_of_id_[id], delta);
    return;
  }
  const size_t base = static_cast<size_t>(ylo_pos_of_id_[id]) * levels_;
  for (size_t level = 0; level < levels_; ++level) {
    fenwick_.Add(slot_of_[base + level], delta);
  }
}

uint64_t ActiveRankTree::active_total(Side side) const {
  return side == Side::kCounting ? ylo_count_.TotalSum()
                                 : fenwick_.TotalSum();
}

uint64_t ActiveRankTree::CountActive(double ylo_max, double yhi_min) const {
  if (m_ == 0) return 0;
  IQS_DCHECK(yhi_min <= ylo_max);  // a well-formed query interval
  // Complement trick (header comment): an active element misses the query
  // iff y_lo > ylo_max or y_hi < yhi_min, and for well-formed intervals
  // (y_lo <= y_hi, yhi_min <= ylo_max) those misses are disjoint AND every
  // y_hi < yhi_min element already has y_lo <= ylo_max. So
  //   |K_e| = #active(y_lo <= ylo_max) - #active(y_hi < yhi_min),
  // two prefix counts over the endpoint rank orders — no block walk.
  const size_t p = static_cast<size_t>(
      std::upper_bound(ylo_by_rank_.begin(), ylo_by_rank_.end(), ylo_max) -
      ylo_by_rank_.begin());
  const size_t q = static_cast<size_t>(
      std::lower_bound(yhi_by_rank_.begin(), yhi_by_rank_.end(), yhi_min) -
      yhi_by_rank_.begin());
  return ylo_count_.PrefixSum(p) - yhi_count_.PrefixSum(q);
}

uint64_t ActiveRankTree::AppendActiveCover(double ylo_max, double yhi_min,
                                           CoverPlan* plan) const {
  if (m_ == 0) return 0;
  const size_t p = static_cast<size_t>(
      std::upper_bound(ylo_by_rank_.begin(), ylo_by_rank_.end(), ylo_max) -
      ylo_by_rank_.begin());
  uint64_t total = 0;
  ForEachPrefixBlock(p, [&](size_t level, size_t first, size_t end) {
    const size_t base = SlotBase(level, first);
    const auto seg_begin = yhi_by_slot_.begin() + static_cast<ptrdiff_t>(base);
    const auto seg_end =
        yhi_by_slot_.begin() + static_cast<ptrdiff_t>(base + (end - first));
    const size_t lo =
        base + static_cast<size_t>(
                   std::lower_bound(seg_begin, seg_end, yhi_min) - seg_begin);
    const size_t hi = base + (end - first);
    if (lo >= hi) return;
    const uint64_t count = fenwick_.PrefixSum(hi) - fenwick_.PrefixSum(lo);
    if (count == 0) return;  // CoverPlan groups must carry weight > 0
    plan->AddGroup(lo, hi - 1, static_cast<double>(count));
    total += count;
  });
  return total;
}

size_t ActiveRankTree::MemoryBytes() const {
  return block_size_.capacity() * sizeof(size_t) +
         ylo_by_rank_.capacity() * sizeof(double) +
         ylo_pos_of_id_.capacity() * sizeof(uint32_t) +
         ids_by_slot_.capacity() * sizeof(uint32_t) +
         yhi_by_slot_.capacity() * sizeof(double) +
         slot_of_.capacity() * sizeof(uint32_t) + fenwick_.MemoryBytes() +
         yhi_by_rank_.capacity() * sizeof(double) +
         yhi_pos_of_id_.capacity() * sizeof(uint32_t) +
         ylo_count_.MemoryBytes() + yhi_count_.MemoryBytes() +
         (sampler_ ? sampler_->MemoryBytes() : 0);
}

}  // namespace iqs::join
