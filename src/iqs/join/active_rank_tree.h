// The Activate/Deactivate structure behind join sampling
// (iqs/join/join_sampler.h) — the dynamic side of the plane sweep.
//
// One ActiveRankTree indexes ONE relation's y-extents. During the sweep
// on x, a rectangle is Activate()d at its START event and Deactivate()d
// at its END event; at the OTHER relation's START events the tree
// answers, over the currently active set,
//
//   K_e = { j active : y_lo(j) <= e.y_hi  AND  y_hi(j) >= e.y_lo }
//
// (closed-interval y-overlap) as either a count (phase 1 of the join
// sampler) or a weighted cover of contiguous position runs (phase 3, in
// a pool fill). The two answers read separate activity, and each sweep
// maintains only the side it asks (Side below).
//
// Layout: elements are embedded in rank space by sorting on (y_lo, id) —
// the (value, id) tie-break plays the role of SJS's global rank
// embedding, making every comparison exact without epsilons. The y_lo
// condition then selects a PREFIX [0, p) of that order. The prefix is
// decomposed over `levels` block granularities (level k holds aligned
// blocks of `branching`^k consecutive ylo-positions; level 0 is
// singletons), each block storing its elements re-sorted by (y_hi, id) so
// the y_hi condition selects a contiguous SUFFIX run of the block. All
// blocks of all levels are concatenated into one global position space of
// N = levels * m slots; a Fenwick tree of 0/1 activity over that space
// turns each run into (active count, uniform draw) in O(log N). A query
// therefore becomes <= branching * levels disjoint runs — exactly the
// weighted-disjoint-group currency of CoverPlan, which is how join draws
// ride the shared CoverExecutor pipeline.
//
// Costs for m elements, branching B: space O(m log_B m); Activate /
// Deactivate O(log_B m * log N); AppendActiveCover O(B log_B m * log N);
// one uniform draw O(log N). CountActive is O(log m): counting (unlike
// cover enumeration, which must produce contiguous DRAWABLE runs) needs
// no block decomposition — for well-formed intervals the two ways an
// active element can miss the query (y_lo too high, y_hi too low) are
// disjoint, so two rank-space Fenwicks (one per endpoint order) answer
//   |K_e| = #active(y_lo <= a) - #active(y_hi < b)
// exactly. The phase-1 sweep leans on this; phase 3 cross-checks its
// weights against AppendActiveCover's block totals (IQS_DCHECK in the
// sampler).
//
// Concurrency: Activate/Deactivate are writer operations and must be
// externally serialized against everything else (JoinSampler runs the
// whole sweep under one lock). The read side (counts, covers, sampler
// draws) is const and safe to run concurrently BETWEEN mutations — the
// join sampler's flush discipline guarantees exactly that.

#ifndef IQS_JOIN_ACTIVE_RANK_TREE_H_
#define IQS_JOIN_ACTIVE_RANK_TREE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "iqs/cover/cover_plan.h"
#include "iqs/multidim/point.h"
#include "iqs/range/fenwick_tree.h"
#include "iqs/range/range_sampler.h"
#include "iqs/util/check.h"
#include "iqs/util/rng.h"
#include "iqs/util/scratch_arena.h"

namespace iqs::join {

class ActiveRankTree;

// 0/1 activity per position: uint32 cells, exact uint64 counts, and
// SearchPrefix(k) as k-th-active-position selection.
using ActivityCounts = Fenwick<uint32_t, uint64_t>;

// RangeSampler view over an ActiveRankTree's global position space:
// positions [a, b] are slots of the blocked layout, weights are the live
// 0/1 activity bits, and a draw is a uniform pick among the active slots
// of the range (Fenwick count + k-th selection). This is the sampler
// handed to CoverExecutor::ExecuteOverSampler in the join sampler's
// phase 3 — cover groups enumerated by AppendActiveCover are position
// ranges over exactly this view.
class ActiveSetSampler final : public RangeSampler {
 public:
  void QueryPositions(size_t a, size_t b, size_t s, Rng* rng,
                      std::vector<size_t>* out) const override;
  void QueryPositionsBatch(std::span<const PositionQuery> queries, Rng* rng,
                           ScratchArena* arena, const BatchOptions& opts,
                           std::vector<size_t>* out) const override;
  size_t MemoryBytes() const override;
  std::string_view name() const override { return "join-active-set"; }

 private:
  friend class ActiveRankTree;
  ActiveSetSampler(size_t num_slots, const ActivityCounts* fenwick)
      : RangeSampler(num_slots), fenwick_(fenwick) {}

  const ActivityCounts* fenwick_;  // owned by the ActiveRankTree
};

class ActiveRankTree {
 public:
  // Indexes the y-extents of `rects` (ids are positions in the span).
  // `branching` is the block-size base B (>= 2); space grows as
  // m * ceil(log_B m) slots, query covers as B * ceil(log_B m) runs.
  explicit ActiveRankTree(std::span<const multidim::Rect> rects,
                          size_t branching = 16);

  size_t m() const { return m_; }
  size_t num_levels() const { return levels_; }
  size_t num_slots() const { return ids_by_slot_.size(); }

  // The two sides of the structure keep separate activity: CountActive
  // reads only the counting side (two rank-order Fenwicks), while
  // AppendActiveCover and sampler() read only the drawing side (the
  // blocked slot Fenwick). A sweep updates just the side it reads —
  // phase 1 counts, a pool fill draws — so neither pays for the other.
  enum class Side : uint8_t { kCounting, kDrawing };

  // Writer side (the sweep). Activating an element on the drawing side
  // flips its `levels_` copies live; per side, ids must alternate
  // Activate/Deactivate.
  void Activate(uint32_t id, Side side);
  void Deactivate(uint32_t id, Side side);
  uint64_t active_total(Side side) const;

  // |K_e| over the counting side's active set (phase-1 weights).
  uint64_t CountActive(double ylo_max, double yhi_min) const;

  // Appends K_e's canonical runs to the CURRENT query of `plan` (the
  // caller has done BeginQuery), each with weight = its live active
  // count; returns the total (== CountActive on the same state). Runs are
  // position ranges over sampler()'s space, emitted coarse-to-fine then
  // left-to-right — a fixed order, so plans are deterministic.
  uint64_t AppendActiveCover(double ylo_max, double yhi_min,
                             CoverPlan* plan) const;

  // Maps a sampled slot back to the input id (every slot of an element's
  // level copies carries the same id).
  uint32_t IdAt(size_t slot) const {
    IQS_DCHECK(slot < ids_by_slot_.size());
    return ids_by_slot_[slot];
  }

  // The RangeSampler view for ExecuteOverSampler; valid whenever m() > 0.
  const RangeSampler& sampler() const {
    IQS_DCHECK(sampler_ != nullptr);
    return *sampler_;
  }

  size_t MemoryBytes() const;

 private:
  // Decomposes the ylo-order prefix [0, p) into aligned blocks, coarse to
  // fine, invoking fn(level, block_first_pos, block_end_pos) per block.
  template <typename Fn>
  void ForEachPrefixBlock(size_t p, Fn&& fn) const {
    size_t pos = 0;
    size_t level = levels_;
    while (level > 0) {
      --level;
      const size_t block = block_size_[level];
      while (pos + block <= p) {
        fn(level, pos, pos + block);
        pos += block;
      }
    }
  }

  // Adds `delta` (1, or kMinusOne to remove) to `side`'s activity of id.
  void Flip(uint32_t id, Side side, uint32_t delta);

  // Global slot range of ylo-positions [first, end) at `level` (the block
  // starting at `first` — callers pass aligned blocks).
  size_t SlotBase(size_t level, size_t first) const {
    return level * m_ + first;
  }

  size_t branching_ = 0;
  size_t levels_ = 0;
  size_t m_ = 0;
  std::vector<size_t> block_size_;     // per level: branching_^level
  std::vector<double> ylo_by_rank_;    // ylo-order y_lo values (prefix search)
  std::vector<uint32_t> ylo_pos_of_id_;
  std::vector<uint32_t> ids_by_slot_;  // global space: element ids
  std::vector<double> yhi_by_slot_;    // global space: y_hi values (run search)
  std::vector<uint32_t> slot_of_;      // [ylo_pos * levels_ + level] -> slot
  ActivityCounts fenwick_;
  std::unique_ptr<ActiveSetSampler> sampler_;
  // The O(log m) counting side: activity per endpoint rank order, for the
  // complement-trick CountActive (see header comment).
  std::vector<double> yhi_by_rank_;    // yhi-order y_hi values (rank search)
  std::vector<uint32_t> yhi_pos_of_id_;
  ActivityCounts ylo_count_;           // activity over ylo ranks
  ActivityCounts yhi_count_;           // activity over yhi ranks
};

}  // namespace iqs::join

#endif  // IQS_JOIN_ACTIVE_RANK_TREE_H_
