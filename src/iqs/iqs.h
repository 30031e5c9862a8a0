// libiqs — Independent Query Sampling.
//
// Umbrella header: pulls in the whole public API. Reproduces the
// techniques of "Algorithmic Techniques for Independent Query Sampling"
// (Yufei Tao, PODS 2022); see DESIGN.md for the paper-to-module map.
//
//   Technique 0 (alias method)     : iqs::AliasTable
//   Tree sampling                  : iqs::TreeSampler, iqs::SubtreeSampler
//   Technique 1 (alias augment)    : iqs::AugRangeSampler
//   Theorem 3 (chunking)           : iqs::ChunkedRangeSampler
//   Technique 2 (coverage)         : iqs::CoverageEngine + kd/quad/range trees
//   Technique 3 (approx coverage)  : iqs::ComplementRangeSampler,
//                                    KdTreeSampler::QueryDiskApprox
//   Technique 4 (random permutation): iqs::SetUnionSampler,
//                                    iqs::FairNearNeighbor
//   Section 8 (external memory)    : iqs::em::{SamplePool, EmRangeSampler,
//                                    BTree, ExternalSort, BlockDevice}
//   Section 9 extensions           : iqs::DynamicAlias, iqs::FenwickSampler,
//                                    iqs::QuantizedAlias
//   Join sampling (SJS shape)      : iqs::join::JoinSampler

#ifndef IQS_IQS_H_
#define IQS_IQS_H_

#include "iqs/alias/alias_table.h"
#include "iqs/alias/dynamic_alias.h"
#include "iqs/alias/fenwick_sampler.h"
#include "iqs/alias/quantized_alias.h"
#include "iqs/cover/complement_sampler.h"
#include "iqs/cover/cover_enumeration.h"
#include "iqs/cover/cover_executor.h"
#include "iqs/cover/cover_plan.h"
#include "iqs/cover/coverage_engine.h"
#include "iqs/em/block_device.h"
#include "iqs/em/btree.h"
#include "iqs/em/buffer_pool.h"
#include "iqs/em/deamortized_pool.h"
#include "iqs/em/em_array.h"
#include "iqs/em/em_range_sampler.h"
#include "iqs/em/em_weighted_range_sampler.h"
#include "iqs/em/em_sort.h"
#include "iqs/em/sample_pool.h"
#include "iqs/em/stepwise_sort.h"
#include "iqs/em/weighted_sample_pool.h"
#include "iqs/join/active_rank_tree.h"
#include "iqs/join/join_batch.h"
#include "iqs/join/join_enumerator.h"
#include "iqs/join/join_sampler.h"
#include "iqs/lsh/euclidean_lsh.h"
#include "iqs/lsh/fair_nn.h"
#include "iqs/multidim/kd_sampler.h"
#include "iqs/multidim/kd_tree.h"
#include "iqs/multidim/kd_tree_nd.h"
#include "iqs/multidim/multidim_batch.h"
#include "iqs/multidim/point.h"
#include "iqs/multidim/quadtree.h"
#include "iqs/multidim/range_tree.h"
#include "iqs/multidim/range_tree_nd.h"
#include "iqs/range/aug_range_sampler.h"
#include "iqs/range/bst_range_sampler.h"
#include "iqs/range/chunked_range_sampler.h"
#include "iqs/range/dynamic_range_sampler.h"
#include "iqs/range/fenwick_tree.h"
#include "iqs/range/integer_range_sampler.h"
#include "iqs/range/logarithmic_range_sampler.h"
#include "iqs/range/naive_range_sampler.h"
#include "iqs/range/range_sampler.h"
#include "iqs/range/rmq.h"
#include "iqs/range/static_bst.h"
#include "iqs/sampling/dependent_range_sampler.h"
#include "iqs/sampling/estimator.h"
#include "iqs/sampling/multinomial.h"
#include "iqs/sampling/set_sampler.h"
#include "iqs/sampling/wor_query.h"
#include "iqs/serve/frontend.h"
#include "iqs/serve/serve_stats.h"
#include "iqs/serve/ticket.h"
#include "iqs/setunion/set_union_sampler.h"
#include "iqs/simd/dispatch.h"
#include "iqs/sketch/kmv_sketch.h"
#include "iqs/tree/subtree_sampler.h"
#include "iqs/tree/tree_sampler.h"
#include "iqs/tree/weighted_tree.h"
#include "iqs/util/batch_options.h"
#include "iqs/util/check.h"
#include "iqs/util/distributions.h"
#include "iqs/util/epoch.h"
#include "iqs/util/function_ref.h"
#include "iqs/util/rng.h"
#include "iqs/util/scratch_arena.h"
#include "iqs/util/stats.h"
#include "iqs/util/telemetry.h"
#include "iqs/util/thread_annotations.h"
#include "iqs/util/thread_pool.h"

// Convenience: the paper's headline structure under its problem name.
namespace iqs {
// Theorem 3: O(n) space, O(log n + s) weighted range sampling.
using WeightedRangeSampler = ChunkedRangeSampler;
}  // namespace iqs

#endif  // IQS_IQS_H_
