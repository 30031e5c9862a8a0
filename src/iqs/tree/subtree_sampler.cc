#include "iqs/tree/subtree_sampler.h"

#include "iqs/cover/cover_executor.h"
#include "iqs/util/telemetry.h"

namespace iqs {

SubtreeSampler::SubtreeSampler(const WeightedTree* tree) : tree_(tree) {
  IQS_CHECK(tree_ != nullptr && tree_->finalized());
  const size_t num_nodes = tree_->num_nodes();
  interval_lo_.assign(num_nodes, 0);
  interval_hi_.assign(num_nodes, 0);

  // Iterative DFT computing Π and each node's leaf interval. A node's
  // interval spans from the first leaf seen after entering it to the last
  // leaf seen before leaving it.
  struct Frame {
    WeightedTree::NodeId node;
    size_t next_child;
  };
  std::vector<Frame> stack;
  stack.push_back({tree_->root(), 0});
  while (!stack.empty()) {
    Frame& frame = stack.back();
    const WeightedTree::NodeId u = frame.node;
    if (frame.next_child == 0) {  // entering u
      interval_lo_[u] = static_cast<uint32_t>(leaf_sequence_.size());
      if (tree_->IsLeaf(u)) {
        leaf_sequence_.push_back(u);
        interval_hi_[u] = interval_lo_[u];
        stack.pop_back();
        continue;
      }
    }
    if (frame.next_child < tree_->Children(u).size()) {
      const WeightedTree::NodeId child = tree_->Children(u)[frame.next_child];
      ++frame.next_child;
      stack.push_back({child, 0});
    } else {  // leaving u
      interval_hi_[u] = static_cast<uint32_t>(leaf_sequence_.size()) - 1;
      stack.pop_back();
    }
  }
  IQS_CHECK(!leaf_sequence_.empty());

  // Weighted range sampling over Π: positions are Euler-tour order.
  std::vector<double> leaf_weights(leaf_sequence_.size());
  for (size_t p = 0; p < leaf_sequence_.size(); ++p) {
    leaf_weights[p] = tree_->Weight(leaf_sequence_[p]);
  }
  range_sampler_ = std::make_unique<ChunkedRangeSampler>(leaf_weights);
}

void SubtreeSampler::Query(WeightedTree::NodeId q, size_t s, Rng* rng,
                           std::vector<WeightedTree::NodeId>* out) const {
  IQS_CHECK(q < tree_->num_nodes());
  if (s == 0) return;
  std::vector<size_t> positions;
  positions.reserve(s);
  range_sampler_->QueryPositions(interval_lo_[q], interval_hi_[q], s, rng,
                                 &positions);
  out->reserve(out->size() + s);
  for (size_t p : positions) out->push_back(leaf_sequence_[p]);
}

void SubtreeSampler::QueryBatch(std::span<const SubtreeBatchQuery> queries,
                                Rng* rng, ScratchArena* arena,
                                BatchResult* result) const {
  QueryBatch(queries, rng, arena, BatchOptions{}, result);
}

void SubtreeSampler::QueryBatch(std::span<const SubtreeBatchQuery> queries,
                                Rng* rng, ScratchArena* arena,
                                const BatchOptions& opts,
                                BatchResult* result) const {
  const uint64_t start_ns = opts.telemetry != nullptr ? TelemetryNowNs() : 0;
  result->Clear();
  arena->Reset();
  thread_local CoverPlan plan;
  plan.Clear();
  const size_t nq = queries.size();
  result->resolved.resize(nq);
  result->offsets.resize(nq + 1);
  size_t total_samples = 0;
  for (size_t i = 0; i < nq; ++i) {
    const WeightedTree::NodeId u = queries[i].node;
    IQS_DCHECK(u < tree_->num_nodes());
    result->offsets[i] = total_samples;
    result->resolved[i] = 1;
    plan.BeginQuery(queries[i].s);
    if (queries[i].s == 0) continue;
    plan.AddGroup(interval_lo_[u], interval_hi_[u], tree_->Weight(u), u);
    total_samples += queries[i].s;
  }
  result->offsets[nq] = total_samples;

  result->positions.clear();
  result->positions.reserve(total_samples);
  CoverExecutor::ExecuteOverSampler(plan, *range_sampler_, rng, arena, opts,
                                    &result->positions);
  IQS_CHECK(result->positions.size() == total_samples);
  for (size_t& p : result->positions) p = leaf_sequence_[p];
  if (opts.telemetry != nullptr) {
    opts.telemetry->shard(0)->latency.Record(TelemetryNowNs() - start_ns);
  }
}

size_t SubtreeSampler::MemoryBytes() const {
  return leaf_sequence_.capacity() * sizeof(WeightedTree::NodeId) +
         interval_lo_.capacity() * sizeof(uint32_t) +
         interval_hi_.capacity() * sizeof(uint32_t) +
         (range_sampler_ != nullptr ? range_sampler_->MemoryBytes() : 0);
}

}  // namespace iqs
