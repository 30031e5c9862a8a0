// d-dimensional range tree IQS (paper Sections 3.2 and 5, general d):
// O(n log^{d-1} n) space, O(log^d n + s·) query for weighted orthogonal
// range sampling in R^d — the Theorem-5 upgrade of Martinez's structure
// for arbitrary constant d.
//
// Recursive layout: the level-k structure is a balanced binary tree over
// the points sorted by coordinate k; every node owns a level-(k+1)
// structure on its subtree's points; the last level is a Theorem-3
// chunked sampler over the points sorted by the final coordinate. A query
// peels canonical nodes dimension by dimension (O(log n) per level,
// O(log^d n) leaf-level pieces in the worst case), splits the budget
// multinomially across the resulting contiguous runs, and samples each
// active run in O(log + s_i).
//
// The measured-space constant is substantial (each point is replicated in
// O(log^{d-1} n) samplers) — exactly the trade-off the paper contrasts
// against the kd-tree's O(n) space; see bench_ablation / EXPERIMENTS.md.

#ifndef IQS_MULTIDIM_RANGE_TREE_ND_H_
#define IQS_MULTIDIM_RANGE_TREE_ND_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "iqs/multidim/kd_tree_nd.h"  // BoxNd, BoxBatchQuery
#include "iqs/range/chunked_range_sampler.h"
#include "iqs/range/range_sampler.h"  // BatchResult
#include "iqs/util/batch_options.h"
#include "iqs/util/rng.h"
#include "iqs/util/scratch_arena.h"

namespace iqs::multidim {

class RangeTreeNdSampler {
 public:
  // `coords`: n*dim doubles, row-major, n < 2^32. `weights` parallel,
  // finite and positive ({} -> unit); all checked. `leaf_size` caps
  // tree-leaf width on every non-final level.
  RangeTreeNdSampler(size_t dim, std::span<const double> coords,
                     std::span<const double> weights, size_t leaf_size = 8);

  size_t dim() const { return dim_; }
  size_t n() const { return weights_.size(); }
  std::span<const double> PointAt(size_t id) const {
    return {coords_.data() + id * dim_, dim_};
  }

  // Draws `s` independent weighted samples from S ∩ q, appending point
  // ids (indices into the constructor order). False when the box is empty.
  bool QueryBox(const BoxNd& q, size_t s, Rng* rng,
                std::vector<size_t>* out) const;

  // Batched serving fast path: all queries' pieces go into one CoverPlan,
  // the CoverExecutor performs the multinomial splits, and per-group
  // draws are coalesced BY FINAL-LEVEL STRUCTURE so pieces of different
  // queries that share a leaf sampler ride one chunked batched call.
  // result->positions holds point ids (constructor order).
  // opts.num_threads >= 1 serves the coalesced structure runs in the
  // deterministic parallel mode, one RNG substream per run (see
  // BatchOptions). Canonical order (queries, rng, arena, opts, &result).
  void QueryBatch(std::span<const BoxBatchQuery> queries, Rng* rng,
                  ScratchArena* arena, const BatchOptions& opts,
                  BatchResult* result) const;

  // Convenience: default options.
  void QueryBatch(std::span<const BoxBatchQuery> queries, Rng* rng,
                  ScratchArena* arena, BatchResult* result) const;

  // Reporting oracle (brute force; for tests).
  void Report(const BoxNd& q, std::vector<size_t>* out) const;

  size_t MemoryBytes() const;

 private:
  // A structure over a set of point ids, filtering dimensions
  // [level, dim). For level == dim-1 it holds the final sampler; else a
  // balanced tree whose every node owns a child structure.
  struct LevelStructure {
    size_t level = 0;
    // Final level: build-order index among final structures, the
    // heap-independent key QueryBatch orders its runs by.
    uint32_t ordinal = 0;
    // Ids sorted by coordinate `level`; on the final level also the
    // sampler, the sorted coordinate values (for binary search) and
    // weight prefix sums (O(1) piece weights).
    std::vector<uint32_t> ids_sorted;
    std::vector<double> sorted_coords;
    std::vector<double> weight_prefix;
    std::unique_ptr<ChunkedRangeSampler> sampler;
    // Non-final level: balanced tree over ids sorted by coordinate
    // `level`; nodes in a local arena.
    struct TreeNode {
      uint32_t lo = 0;
      uint32_t hi = 0;  // range into ids_sorted
      uint32_t left = kNull;
      uint32_t right = kNull;
      std::unique_ptr<LevelStructure> child;  // dims level+1..d-1
    };
    std::vector<TreeNode> tree;
  };
  static constexpr uint32_t kNull = ~uint32_t{0};

  // Either a contiguous run [lo, hi] in a final structure's sorted order,
  // or (leaf_structure == nullptr) a single point id stored in lo == hi.
  struct Piece {
    const LevelStructure* leaf_structure;
    uint32_t lo;
    uint32_t hi;
    double weight;
  };

  // `next_ordinal` numbers the final-level structures in build order.
  std::unique_ptr<LevelStructure> BuildStructure(
      size_t level, std::vector<uint32_t> ids, uint32_t* next_ordinal) const;
  uint32_t BuildTree(LevelStructure* s, size_t lo, size_t hi,
                     uint32_t* next_ordinal) const;

  void CollectPieces(const LevelStructure& s, const BoxNd& q,
                     std::vector<Piece>* pieces) const;
  void CollectFinal(const LevelStructure& s, const BoxNd& q,
                    std::vector<Piece>* pieces) const;

  size_t dim_;
  size_t leaf_size_;
  std::vector<double> coords_;
  std::vector<double> weights_;
  std::unique_ptr<LevelStructure> root_;
};

}  // namespace iqs::multidim

#endif  // IQS_MULTIDIM_RANGE_TREE_ND_H_
