// JoinSampler — i.i.d. uniform sampling from the result of a 2-d
// rectangle intersection join WITHOUT materializing it (ROADMAP item 3;
// the SJS three-phase shape of SNIPPETS.md §2 lowered onto this
// library's cover pipeline).
//
// Join: J = { (r, s) : r.Intersects(s) } over two relations of closed
// rectangles. |J| can be Θ(n^2) while a query only wants s independent
// uniform pairs — the enumeration cost is exactly what the paper's IQS
// separation (query time independent of the result size) eliminates, and
// this module is the generality test of that machinery beyond range
// queries.
//
// Three phases, and the paper's §8 set-sampling pool on top:
//   1. (construction) Plane-sweep on x in rank space. Each relation keeps
//      an Activate/Deactivate structure over its y-extents
//      (join/active_rank_tree.h); at every START event e the OPPOSITE
//      tree counts K_e = active rectangles with y-overlap, charging each
//      joining pair to the LATER of its two starts (query before
//      activate), so |J| = sum of the per-event weights w_e = |K_e|. An
//      alias table over {w_e} is built once.
//   2. (per fill) The alias table assigns each of the P slots of a pool
//      fill to its START event in O(1) per draw — the event marginal must
//      be w_e / |J| for pairs to be uniform over J.
//   3. (per fill) A second sweep replays the events; at a drawing event
//      the opposite tree's active set is re-enumerated as weighted
//      contiguous runs into a CoverPlan, and pending plan queries are
//      flushed through CoverExecutor::ExecuteOverSampler (over the
//      tree's Fenwick-backed RangeSampler view) each time their tree is
//      about to change. There is NO bespoke draw loop: the multinomial
//      split across an event's runs is the shared executor pipeline.
//
// The pool (paper §8). A join query carries no predicate, so every query
// samples the same set J — the set-sampling case. A FILL runs phases 2-3
// as ONE query of P = max(num_r + num_s, kMinPoolSize) i.i.d. uniform
// pairs and Fisher-Yates shuffles them (sweep output is grouped by
// event); that shuffled array is one GENERATION. SampleJoinBatch only
// copies the next q.s pairs of the current generation into each query's
// slice, continuing into generation g+1 when g runs dry. A filler thread
// owned by the sampler builds the standby generation while the current
// one is served, so after the constructor no caller ever runs a sweep.
// Every pooled pair is handed out exactly once, so distinct queries stay
// mutually independent (the E11 / Afshani-Phillips notion).
//
// Costs: construction O(n B log_B n log n) (sort, phase-1 weights,
// alias). A fill costs O(n B log_B n log n + P log n) on the filler
// thread — polylog per pair since P >= n. A batch with total budget s
// costs O(s) copying under the pool lock, plus a wait when it outruns
// the filler: the first batch waits for generation 0 (one fill), and
// sustained demand above the fill rate waits for each standby. Space
// O(n log_B n + P); MemoryBytes() counts both P-pair generation buffers
// from construction on. The filler's per-fill scratch (O(n) draw
// tallies, pending plans of at most P draws) is working memory like a
// batch's ScratchArena and is not counted.
//
// Determinism: the first batch that asks for a pair draws ONE 64-bit
// pool key from its rng and starts the filler; generation g is filled
// from Rng(key).ForkStream(g), and later batches draw nothing from their
// rng. The pairs handed out are therefore a pure function of (the first
// batch's rng state, the sequence of query sizes served through this
// sampler): the g-th generation's cursor position decides every slice.
// Output does not depend on opts.num_threads (fills always run the
// executor in sequential mode), on how queries are split into batches,
// or on timing. It DOES depend on the order in which batches reach one
// sampler, and a repeated seed on the same sampler does NOT repeat its
// output (the pairs already handed out are gone) — build a fresh sampler
// to replay.
//
// Concurrency: SampleJoinBatch is const and thread-safe. Concurrent
// callers serialize only on the pool cursor (a copy of their s pairs);
// the sweep's trees belong to the fill side alone. BatchOptions threading
// fields have no effect here; max_batch is checked, and a telemetry sink
// gets the batch's queries, samples_emitted, the pool-key rng draw and
// the batch latency in shard 0.
// The destructor stops an in-flight fill promptly (the sweep polls a stop
// flag) and joins the filler; it must not run concurrently with a batch.

#ifndef IQS_JOIN_JOIN_SAMPLER_H_
#define IQS_JOIN_JOIN_SAMPLER_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "iqs/alias/alias_table.h"
#include "iqs/join/active_rank_tree.h"
#include "iqs/join/join_batch.h"
#include "iqs/multidim/point.h"
#include "iqs/util/batch_options.h"
#include "iqs/util/rng.h"
#include "iqs/util/scratch_arena.h"
#include "iqs/util/thread_annotations.h"

namespace iqs::join {

struct JoinSamplerOptions {
  // Block-size base of the active trees: space n*log_B n, covers of
  // B*log_B n runs per event. 16 balances both at the bench scales.
  size_t branching = 16;
};

class JoinSampler {
 public:
  // Floor of the pool size P = max(num_r + num_s, kMinPoolSize), so tiny
  // inputs still amortize a fill over many pairs.
  static constexpr size_t kMinPoolSize = 1024;

  // Copies the relations (rect ids in sampled pairs index these spans)
  // and runs phase 1. Every rectangle must have finite coordinates with
  // lo <= hi per axis; anything else aborts (IQS_CHECK).
  JoinSampler(std::span<const multidim::Rect> r,
              std::span<const multidim::Rect> s,
              JoinSamplerOptions options = {});

  // Stops an in-flight fill and joins the filler thread.
  ~JoinSampler();

  JoinSampler(const JoinSampler&) = delete;
  JoinSampler& operator=(const JoinSampler&) = delete;

  size_t num_r() const { return r_.size(); }
  size_t num_s() const { return s_.size(); }

  // Exact join cardinality |J| (a phase-1 byproduct — the sweep counts
  // the join without enumerating it).
  uint64_t JoinSize() const { return join_size_; }

  // Pairs per generation: max(num_r + num_s, kMinPoolSize), or 0 when J
  // is empty.
  size_t pool_size() const { return pool_size_; }

  // THE CANONICAL BATCH SIGNATURE (see RangeSampler::QueryBatch): for
  // each query hands out the next q.s pairs of the pool into `result`
  // (cleared first), flat with per-query offsets. Each query's slice is
  // s i.i.d. uniform pairs from J, in i.i.d. order (the generations are
  // shuffled). When J is empty every query has resolved[i] == 0 and an
  // empty slice. See the header comment for the rng contract.
  void SampleJoinBatch(std::span<const JoinBatchQuery> queries, Rng* rng,
                       ScratchArena* arena, const BatchOptions& opts,
                       JoinBatchResult* result) const;

  // Convenience: default options.
  void SampleJoinBatch(std::span<const JoinBatchQuery> queries, Rng* rng,
                       ScratchArena* arena, JoinBatchResult* result) const {
    SampleJoinBatch(queries, rng, arena, BatchOptions{}, result);
  }

  size_t MemoryBytes() const { return memory_bytes_; }

 private:
  struct SweepEvent {
    double x;
    uint8_t type;  // start sorts before end at equal x (closed intervals)
    uint8_t rel;   // 0 = r, 1 = s
    uint32_t id;
  };
  struct FillScratch;

  static constexpr uint32_t kNotDrawing = ~0u;

  const multidim::Rect& RectOf(const SweepEvent& e) const {
    return (e.rel == 0 ? r_ : s_)[e.id];
  }

  // The filler thread: fills generation 0, 1, ... into the standby
  // buffer, each as soon as the previous standby has been swapped in.
  void FillLoop(uint64_t pool_key) const;

  // Phases 2-3 for one generation: pool_size_ i.i.d. pairs into `out`,
  // shuffled. Returns false iff the stop flag cut the sweep short.
  bool Fill(Rng* rng, FillScratch* scratch, std::vector<JoinPair>* out) const
      IQS_REQUIRES(fill_mu_);

  std::vector<multidim::Rect> r_;
  std::vector<multidim::Rect> s_;
  std::vector<SweepEvent> events_;          // sorted sweep order
  std::vector<uint32_t> start_rank_of_;     // per event; kNotDrawing if w_e=0
  std::vector<double> start_weight_;        // per start rank: w_e
  AliasTable alias_;                        // over start_weight_
  uint64_t join_size_ = 0;
  size_t pool_size_ = 0;
  size_t memory_bytes_ = 0;                 // fixed after construction

  // The fill side: the sweep mutates the trees (they end back at
  // all-inactive), so phase 1 and every fill hold fill_mu_.
  mutable Mutex fill_mu_;
  mutable ActiveRankTree tree_r_ IQS_GUARDED_BY(fill_mu_);
  mutable ActiveRankTree tree_s_ IQS_GUARDED_BY(fill_mu_);

  // The serving side. current_[cursor_..] is what the next query gets;
  // standby_ is the next generation once standby_ready_. The filler
  // borrows standby_'s storage while it fills, so the two buffers
  // reserved at construction are all the pool ever allocates.
  mutable Mutex mu_;
  mutable CondVar cv_;  // standby_ready_ flips (both directions), stop_
  mutable std::vector<JoinPair> current_ IQS_GUARDED_BY(mu_);
  mutable size_t cursor_ IQS_GUARDED_BY(mu_) = 0;
  mutable std::vector<JoinPair> standby_ IQS_GUARDED_BY(mu_);
  mutable bool standby_ready_ IQS_GUARDED_BY(mu_) = false;
  // Set under mu_ by the destructor; the sweep polls it without the lock.
  std::atomic<bool> stop_{false};
  mutable std::thread filler_ IQS_GUARDED_BY(mu_);  // started by batch 1
};

}  // namespace iqs::join

#endif  // IQS_JOIN_JOIN_SAMPLER_H_
