// Shard-per-core serving frontend with cross-user micro-batching
// (ROADMAP item 1; the system layer over the PR 1-6 serving substrate).
//
// Real traffic is millions of connections each submitting ONE sampling
// query — not the pre-formed QueryBatch arrays every fast path below this
// layer is built for. The frontend closes that gap: N producer threads
// call Submit(shard, query, ticket); a per-shard micro-batcher coalesces
// admitted queries into one canonical QueryBatch(queries, rng, arena,
// opts, result) call per time-or-size window (flush at max_batch queries
// or when the oldest waiter has aged max_delay_ns, whichever first), and
// completes each query's ticket from the batch result. Per-query cost
// then rides every batch-layer win at once — grouped cover draws and
// blocked draw kernels (E19), and one pinned epoch snapshot per flushed
// batch (E24: a versioned backend pins inside its QueryBatch, so a whole
// micro-batch observes one immutable structure version under churn).
//
// Sharding is BY STRUCTURE: shard s has its own queue, its own worker
// thread, and serves only backend shard s (shard-per-core — e.g. a
// key-space partition with one sampler per partition). The router is the
// caller's (Submit takes the shard index) because only the caller knows
// the partition function.
//
// WORKLOAD ROUTING: a frontend hosts a routing table of workload classes
// — workload id w → BatchFn — so different traffic classes against the
// same shards (e.g. point-lookup ranges vs analytic joins, or two
// structures over one partition) share the queues, workers, and admission
// machinery of one frontend. Submit(shard, workload, query, ticket)
// routes; the one-workload Submit overload and constructor keep the
// pre-routing API working verbatim (workload 0). A flush drains the shard
// queue in arrival order, then executes one backend batch per workload
// class present (ascending workload id), so classes micro-batch
// INDEPENDENTLY while sharing a window. Per-class ServeShardStats ride
// alongside the aggregate: WorkloadStats(shard, w) / MergedWorkloadStats.
// (All workloads of a ServeFrontend share the Query/Sample/Result types —
// that is what one queue entry can hold; route across type families by
// running one frontend per family, as serve_frontend_test's
// two-frontends-one-process setup does.)
//
// Admission control + backpressure: each shard queue is bounded by
// queue_capacity. A full queue either blocks the producer until the
// worker drains (kBlock — backpressure) or completes the ticket
// kRejected immediately (kReject — load shedding at the door). A
// deadline_ns budget sheds at the other end: queries that sat in the
// queue longer than the budget are completed kShed at flush time instead
// of being sampled, so an overloaded batch spends its work only on
// queries that can still meet their deadline.
//
// Determinism: the randomness of workload w's flushed batch b of shard s
// is Rng(seed).ForkStream(s).ForkStream(w).ForkStream(b_w), where b_w
// counts the flushes in which workload w was PRESENT — a pure function of
// (seed, shard, workload, that workload's batch boundaries), never of the
// clock, the producers' thread timing, or the other workloads' traffic.
// Combined with the executor's deterministic parallel mode (BatchOptions,
// PR 3), the flushed results are byte-identical across
// batch.num_threads ∈ {1, 2, ...} and across any window configs that
// produce the same batch boundaries (serve_frontend_test pins both).
//
// Drain/shutdown: Drain() stops admission (in-flight Submit calls — even
// ones blocked on backpressure — complete kRejected), flushes every
// queued query, and joins the workers; the destructor drains. Every
// admitted ticket is completed exactly once — double completion aborts
// inside ServeTicket, so "no lost or double-completed futures" holds by
// construction. Tickets may complete blocking consumers (Wait) or armed
// continuations (ServeTicket::set_on_complete) — the completion site is
// identical, so both modes inherit the exactly-once guarantee.
//
// Telemetry: per-shard ServeShardStats (queue depth high-water,
// batch-size histogram, time-in-queue vs time-in-batch histograms; see
// serve_stats.h), snapshot via ShardStats()/MergedStats(), with per
// (shard, workload) splits via WorkloadStats()/MergedWorkloadStats().
// The inner sampling pipeline's TelemetrySink can be attached through
// ServeOptions::batch.telemetry when num_shards == 1 (two shard workers
// would race on the sink's shard 0, so multi-shard frontends must leave
// it detached).

#ifndef IQS_SERVE_FRONTEND_H_
#define IQS_SERVE_FRONTEND_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "iqs/serve/serve_stats.h"
#include "iqs/serve/ticket.h"
#include "iqs/util/batch_options.h"
#include "iqs/util/check.h"
#include "iqs/util/rng.h"
#include "iqs/util/scratch_arena.h"
#include "iqs/util/telemetry.h"
#include "iqs/util/thread_annotations.h"
#include "iqs/util/thread_pool.h"

namespace iqs {
namespace serve {

// What a full shard queue does to the NEXT Submit.
enum class AdmissionPolicy {
  kBlock,   // backpressure: the producer waits for queue space (or drain)
  kReject,  // shed at the door: the ticket completes kRejected immediately
};

struct ServeOptions {
  // One micro-batcher queue + one worker thread per shard; Submit's shard
  // argument must be < num_shards.
  size_t num_shards = 1;

  // The micro-batch window: a shard flushes when max_batch queries are
  // pending, or when the OLDEST pending query has waited max_delay_ns —
  // whichever comes first. max_batch bounds batch latency under load;
  // max_delay_ns bounds it when traffic is sparse.
  size_t max_batch = 256;
  uint64_t max_delay_ns = 50 * 1000;  // 50µs

  // Admission control: per-shard queue bound and the full-queue policy.
  size_t queue_capacity = 4096;
  AdmissionPolicy admission = AdmissionPolicy::kBlock;

  // Queue-time budget; 0 = never shed. A query whose time in queue
  // exceeds the budget at flush time completes kShed without sampling.
  // Also threaded into BatchOptions::deadline_ns for observability.
  uint64_t deadline_ns = 0;

  // Base seed of the frontend's batch randomness (see the determinism
  // note above). Independent of the producers' own Rngs.
  uint64_t seed = 0x1d9a3f52c8e07b64ULL;

  // Execution options for each flushed QueryBatch call. pool must be
  // null: with num_threads >= 1 each shard worker owns a private pool
  // (one pool cannot run two shards' batches concurrently). telemetry
  // may be set only when num_shards == 1 (see header comment).
  // batch.max_batch is the frontend's to set (it stamps the flush window
  // before every call) — leave it 0, or equal-or-above max_batch.
  BatchOptions batch;
};

// Aborts (IQS_CHECK) on any ServeOptions combination the frontend cannot
// serve, naming the violated constraint at the construction site instead
// of failing obscurely inside WorkerLoop:
//   * num_shards >= 1 — a frontend with no workers completes nothing;
//   * max_batch >= 1 — a zero-size flush window never flushes;
//   * max_delay_ns >= 1 — the time half of the window must be able to
//     expire (0 would spin the worker on an always-elapsed deadline);
//   * queue_capacity >= max_batch — a queue smaller than the flush window
//     could never fill a size-triggered batch, silently degrading every
//     flush to a timer flush (and capacity 0 would admit nothing);
//   * batch.pool == nullptr and batch.max_batch consistent with the
//     window (0, or >= max_batch) — the frontend overrides both per
//     flush, so a caller-set value it would contradict is a config bug.
inline void ValidateServeOptions(const ServeOptions& options) {
  IQS_CHECK(options.num_shards >= 1);
  IQS_CHECK(options.max_batch >= 1);
  IQS_CHECK(options.max_delay_ns >= 1);
  IQS_CHECK(options.queue_capacity >= options.max_batch);
  IQS_CHECK(options.batch.pool == nullptr);
  IQS_CHECK(options.batch.max_batch == 0 ||
            options.batch.max_batch >= options.max_batch);
  IQS_CHECK(options.batch.telemetry == nullptr || options.num_shards == 1);
}

// The micro-batching frontend, generic over the canonical batch family:
//   Query   one submitted request (BatchQuery, KeyBatchQuery,
//           join::JoinBatchQuery, ...)
//   Sample  element type of one query's flat sample slice (size_t,
//           double, join::JoinPair)
//   Result  the flat batch result (BatchResult, KeyBatchResult,
//           join::JoinBatchResult): needs Clear(), SamplesFor(i), and the
//           resolved[] flags.
// Each routed workload's backend callback executes one flushed
// micro-batch of that class against structure shard `shard` — almost
// always a one-line adapter onto a sampler's QueryBatch. It runs on the
// shard's worker thread; for a versioned backend the snapshot pin inside
// its QueryBatch makes the whole flush see one immutable version.
template <typename Query, typename Sample, typename Result>
class ServeFrontend {
 public:
  using BatchFn =
      std::function<void(size_t shard, std::span<const Query> queries,
                         Rng* rng, ScratchArena* arena,
                         const BatchOptions& opts, Result* result)>;

  // Routing-table constructor: workload id w (< workloads.size()) is
  // served by workloads[w]. Every entry must be callable.
  ServeFrontend(const ServeOptions& options, std::vector<BatchFn> workloads)
      : opts_(options), batch_fns_(std::move(workloads)) {
    ValidateServeOptions(opts_);
    IQS_CHECK(!batch_fns_.empty());
    for (const BatchFn& fn : batch_fns_) {
      // iqs-lint: allow(check-in-loop) -- construction-time validation
      IQS_CHECK(fn != nullptr);
    }
    shards_.reserve(opts_.num_shards);
    for (size_t s = 0; s < opts_.num_shards; ++s) {
      shards_.push_back(std::make_unique<ShardState>(batch_fns_.size()));
    }
    workers_.reserve(opts_.num_shards);
    for (size_t s = 0; s < opts_.num_shards; ++s) {
      workers_.emplace_back([this, s] { WorkerLoop(s); });
    }
  }

  // Single-workload convenience (the pre-routing API): everything is
  // workload 0.
  ServeFrontend(const ServeOptions& options, BatchFn batch_fn)
      : ServeFrontend(options, ToTable(std::move(batch_fn))) {}

  ~ServeFrontend() { Drain(); }

  ServeFrontend(const ServeFrontend&) = delete;
  ServeFrontend& operator=(const ServeFrontend&) = delete;

  // Submits one query of `workload` to structure shard `shard`. `ticket`
  // must be pending (fresh or Reset) and outlive its completion. Returns
  // true iff the query was admitted; on false the ticket has been
  // completed kRejected. Any number of producer threads may submit
  // concurrently, to any mix of workloads.
  bool Submit(size_t shard, size_t workload, const Query& query,
              ServeTicket<Sample>* ticket) {
    IQS_DCHECK(shard < shards_.size());
    IQS_DCHECK(workload < batch_fns_.size());
    IQS_DCHECK(ticket->status() == ServeStatus::kPending);
    ShardState& st = *shards_[shard];
    const uint64_t now = TelemetryNowNs();
    ticket->set_submit_ns(now);
    st.mu.Lock();
    if (opts_.admission == AdmissionPolicy::kBlock) {
      while (!(st.stop || st.queue.size() < opts_.queue_capacity)) {
        st.space.Wait(&st.mu);
      }
    }
    if (st.stop || st.queue.size() >= opts_.queue_capacity) {
      st.stats.rejected += 1;
      st.wstats[workload].rejected += 1;
      st.mu.Unlock();
      ticket->Complete(ServeStatus::kRejected, {}, TelemetryNowNs());
      return false;
    }
    st.queue.push_back(
        PendingQuery{query, ticket, now, static_cast<uint32_t>(workload)});
    const size_t depth = st.queue.size();
    st.stats.submitted += 1;
    if (depth > st.stats.queue_depth_hwm) st.stats.queue_depth_hwm = depth;
    ServeShardStats& ws = st.wstats[workload];
    ws.submitted += 1;
    const size_t wdepth = ++st.wpending[workload];
    if (wdepth > ws.queue_depth_hwm) ws.queue_depth_hwm = wdepth;
    st.mu.Unlock();
    // The worker needs waking on the empty->nonempty edge (it waits for
    // work) and at the size trigger (it waits out the delay window);
    // between the two it will flush on its own timer.
    if (depth == 1 || depth >= opts_.max_batch) st.nonempty.NotifyOne();
    return true;
  }

  // Single-workload convenience: Submit to workload 0.
  bool Submit(size_t shard, const Query& query, ServeTicket<Sample>* ticket) {
    return Submit(shard, 0, query, ticket);
  }

  // Stops admission, flushes every queued query, joins the workers.
  // Idempotent; called by the destructor. After Drain, Submit completes
  // every ticket kRejected.
  void Drain() {
    MutexLock drain_lock(&drain_mu_);
    for (std::unique_ptr<ShardState>& st : shards_) {
      {
        MutexLock lock(&st->mu);
        st->stop = true;
      }
      st->nonempty.NotifyAll();
      st->space.NotifyAll();
    }
    for (std::thread& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
  }

  size_t num_shards() const { return shards_.size(); }
  size_t num_workloads() const { return batch_fns_.size(); }
  const ServeOptions& options() const { return opts_; }

  // Live queue depth of one shard (racy by nature — a gauge, not a fact).
  size_t QueueDepth(size_t shard) const {
    ShardState& st = *shards_[shard];
    MutexLock lock(&st.mu);
    return st.queue.size();
  }

  // Snapshots of the serving stats (serve_stats.h). Safe to call while
  // traffic is in flight — each copy is taken under the shard's mutex.
  // ShardStats/MergedStats aggregate over workloads; the per-class splits
  // cover the same counters per (shard, workload), except that
  // batches_flushed counts that class's executed backend batches and
  // queue_depth_hwm is the class's own pending high-water.
  ServeShardStats ShardStats(size_t shard) const {
    ShardState& st = *shards_[shard];
    MutexLock lock(&st.mu);
    return st.stats;
  }
  ServeShardStats MergedStats() const {
    ServeShardStats merged;
    for (size_t s = 0; s < shards_.size(); ++s) {
      const ServeShardStats shard_stats = ShardStats(s);
      merged.MergeFrom(shard_stats);
    }
    return merged;
  }
  ServeShardStats WorkloadStats(size_t shard, size_t workload) const {
    IQS_CHECK(workload < batch_fns_.size());
    ShardState& st = *shards_[shard];
    MutexLock lock(&st.mu);
    return st.wstats[workload];
  }
  ServeShardStats MergedWorkloadStats(size_t workload) const {
    ServeShardStats merged;
    for (size_t s = 0; s < shards_.size(); ++s) {
      const ServeShardStats shard_stats = WorkloadStats(s, workload);
      merged.MergeFrom(shard_stats);
    }
    return merged;
  }

 private:
  struct PendingQuery {
    Query query;
    ServeTicket<Sample>* ticket;
    uint64_t submit_ns;
    uint32_t workload;
  };

  static std::vector<BatchFn> ToTable(BatchFn batch_fn) {
    std::vector<BatchFn> table;
    table.push_back(std::move(batch_fn));
    return table;
  }

  // One shard's queue + worker rendezvous. Aligned so two shards' queue
  // traffic never false-shares (each ShardState is its own heap object
  // anyway; the alignment hardens the layout).
  struct alignas(64) ShardState {
    explicit ShardState(size_t num_workloads)
        : wstats(num_workloads), wpending(num_workloads, 0) {}

    Mutex mu;
    CondVar nonempty;  // worker waits for work / triggers
    CondVar space;     // kBlock producers wait for room
    std::deque<PendingQuery> queue IQS_GUARDED_BY(mu);
    bool stop IQS_GUARDED_BY(mu) = false;
    // Worker + producers both record; snapshots copy under mu. stats is
    // the all-workloads aggregate, wstats[w] the per-class split,
    // wpending[w] the class's live queue count (for its depth hwm).
    ServeShardStats stats IQS_GUARDED_BY(mu);
    std::vector<ServeShardStats> wstats IQS_GUARDED_BY(mu);
    std::vector<size_t> wpending IQS_GUARDED_BY(mu);
  };

  // Per-workload outcome of one flush, accumulated outside the shard
  // mutex and folded into the stats under it.
  struct GroupOutcome {
    size_t taken = 0;  // queries of this class in the flush
    size_t shed = 0;
    size_t completed = 0;
    uint64_t batch_ns = 0;
    bool executed = false;  // a backend batch ran for this class
  };

  void WorkerLoop(size_t shard_index) {
    ShardState& st = *shards_[shard_index];
    const size_t num_workloads = batch_fns_.size();
    // Pure function of (seed, shard): workload w's batch b below serves
    // under shard_base.ForkStream(w).ForkStream(b), so results depend
    // only on that workload's batch boundaries — not on producer timing,
    // worker scheduling, or the other workloads' traffic.
    const Rng shard_base = Rng(opts_.seed).ForkStream(shard_index);
    std::vector<uint64_t> flush_seq(num_workloads, 0);

    BatchOptions inner = opts_.batch;
    inner.max_batch = opts_.max_batch;
    inner.deadline_ns = opts_.deadline_ns;
    std::unique_ptr<ThreadPool> pool;
    if (!inner.sequential()) {
      pool = std::make_unique<ThreadPool>(inner.num_threads);
      inner.pool = pool.get();
    }

    std::vector<PendingQuery> flush;
    std::vector<Query> queries;
    std::vector<size_t> live;  // index into `flush` of each non-shed query
    std::vector<GroupOutcome> outcomes(num_workloads);
    Result result;
    ScratchArena arena;
    flush.reserve(opts_.max_batch);
    queries.reserve(opts_.max_batch);
    live.reserve(opts_.max_batch);

    st.mu.Lock();
    for (;;) {
      while (!(st.stop || !st.queue.empty())) st.nonempty.Wait(&st.mu);
      if (st.queue.empty()) break;  // stop && drained
      // The coalescing window: sleep until the size trigger, the oldest
      // waiter's delay expiring, or drain. Only this worker pops, so the
      // queue cannot shrink (and the oldest entry cannot change) while it
      // waits here.
      while (st.queue.size() < opts_.max_batch && !st.stop) {
        const uint64_t flush_at =
            st.queue.front().submit_ns + opts_.max_delay_ns;
        const uint64_t now = TelemetryNowNs();
        if (now >= flush_at) break;
        st.nonempty.WaitForNs(&st.mu, flush_at - now);
      }
      const size_t take = std::min(st.queue.size(), opts_.max_batch);
      flush.clear();
      for (size_t i = 0; i < take; ++i) {
        flush.push_back(st.queue.front());
        st.queue.pop_front();
        st.wpending[flush.back().workload] -= 1;
      }
      st.mu.Unlock();
      if (opts_.admission == AdmissionPolicy::kBlock) st.space.NotifyAll();

      const uint64_t flush_start = TelemetryNowNs();
      // One backend batch per workload class present, ascending id;
      // within a class, queries keep their arrival order.
      for (size_t w = 0; w < num_workloads; ++w) {
        GroupOutcome& outcome = outcomes[w];
        outcome = GroupOutcome{};
        queries.clear();
        live.clear();
        for (size_t i = 0; i < flush.size(); ++i) {
          if (flush[i].workload != w) continue;
          outcome.taken += 1;
          if (opts_.deadline_ns != 0 &&
              flush_start - flush[i].submit_ns > opts_.deadline_ns) {
            flush[i].ticket->Complete(ServeStatus::kShed, {}, flush_start);
            outcome.shed += 1;
            continue;
          }
          queries.push_back(flush[i].query);
          live.push_back(i);
        }
        if (outcome.taken == 0) continue;  // class absent: its stream
                                           // index does not tick
        if (!queries.empty()) {
          Rng rng = shard_base.ForkStream(w).ForkStream(flush_seq[w]);
          result.Clear();
          arena.Reset();
          const uint64_t group_start = TelemetryNowNs();
          batch_fns_[w](shard_index, std::span<const Query>(queries), &rng,
                        &arena, inner, &result);
          const uint64_t done = TelemetryNowNs();
          outcome.batch_ns = done - group_start;
          outcome.executed = true;
          outcome.completed = live.size();
          for (size_t i = 0; i < live.size(); ++i) {
            flush[live[i]].ticket->Complete(result.resolved[i] != 0
                                                ? ServeStatus::kOk
                                                : ServeStatus::kEmpty,
                                            result.SamplesFor(i), done);
          }
        }
        // The class's flush index ticks whether or not anything survived
        // shedding, so its batch randomness stays a function of its flush
        // BOUNDARIES alone (an all-shed group consumes a stream id, not
        // zero of them).
        ++flush_seq[w];
      }

      st.mu.Lock();
      st.stats.batch_size.Record(take);
      for (const PendingQuery& pending : flush) {
        st.stats.time_in_queue_ns.Record(flush_start - pending.submit_ns);
        st.wstats[pending.workload].time_in_queue_ns.Record(
            flush_start - pending.submit_ns);
      }
      for (size_t w = 0; w < num_workloads; ++w) {
        const GroupOutcome& outcome = outcomes[w];
        if (outcome.taken == 0) continue;
        ServeShardStats& ws = st.wstats[w];
        ws.shed += outcome.shed;
        ws.completed += outcome.completed;
        ws.batch_size.Record(outcome.taken);
        st.stats.shed += outcome.shed;
        st.stats.completed += outcome.completed;
        if (outcome.executed) {
          ws.batches_flushed += 1;
          ws.time_in_batch_ns.Record(outcome.batch_ns);
          st.stats.batches_flushed += 1;
          st.stats.time_in_batch_ns.Record(outcome.batch_ns);
        }
      }
    }
    st.mu.Unlock();
  }

  const ServeOptions opts_;
  const std::vector<BatchFn> batch_fns_;  // the routing table
  std::vector<std::unique_ptr<ShardState>> shards_;
  std::vector<std::thread> workers_;
  Mutex drain_mu_;  // serializes Drain vs ~ServeFrontend
};

}  // namespace serve
}  // namespace iqs

#endif  // IQS_SERVE_FRONTEND_H_
