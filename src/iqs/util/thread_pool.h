// Small work-stealing worker pool for the parallel batch-serving path.
//
// Design goals, in order: determinism support, TSan-cleanliness, and low
// constant factors for the coarse tasks this library produces (a "shard"
// is a contiguous range of queries worth microseconds to milliseconds of
// draw work, never a single sample). The pool therefore keeps ONE mutex
// for all queue bookkeeping — claim and completion accounting are a few
// dozen nanoseconds against shard bodies that run unlocked — and spends
// its complexity budget on the stealing discipline instead: each worker
// owns a queue seeded round-robin, pops its own work LIFO (cache-warm),
// and steals FIFO from its neighbours when it runs dry, so an uneven
// shard (one query with a huge budget) cannot idle the other workers.
// Because the deal is round-robin, worker w's queue is always the
// arithmetic run w, w+k, w+2k, ... — a queue is just a [head, tail) pair
// of positions in that run, kept in the pool, so ParallelFor itself never
// touches the heap.
//
// The CALLING thread is worker 0 and participates fully: ThreadPool(k)
// spawns k-1 background threads, and ThreadPool(1) degenerates to an
// inline loop with no locking at all. Each worker owns a persistent
// ScratchArena (worker_arena()), so steady-state parallel batches perform
// zero heap allocations, mirroring the sequential serving contract.
//
// No exceptions anywhere (project convention): misuse — a zero worker
// count, nested/concurrent ParallelFor on one pool, an out-of-range
// worker index — aborts via IQS_CHECK.

#ifndef IQS_UTIL_THREAD_POOL_H_
#define IQS_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "iqs/util/check.h"
#include "iqs/util/function_ref.h"
#include "iqs/util/scratch_arena.h"
#include "iqs/util/thread_annotations.h"

namespace iqs {

class TelemetrySink;

class ThreadPool {
 public:
  // Spawns `num_threads - 1` background workers; the caller of
  // ParallelFor acts as worker 0. num_threads must be >= 1.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return num_threads_; }

  // Runs fn(shard, worker) exactly once for every shard in
  // [0, num_shards), with worker in [0, num_threads()). Blocks until all
  // shards have completed. The calling thread participates as worker 0.
  // One ParallelFor at a time per pool: concurrent or nested calls abort.
  void ParallelFor(size_t num_shards, FunctionRef<void(size_t, size_t)> fn)
      IQS_EXCLUDES(mu_);

  // Per-worker scratch, persistent across ParallelFor calls (so repeated
  // batches settle into zero heap allocations). Only the worker that owns
  // the index may use it during a ParallelFor.
  ScratchArena* worker_arena(size_t worker) {
    IQS_CHECK(worker < num_threads_);
    return arenas_[worker].get();
  }

  // Attaches a telemetry sink (iqs/util/telemetry.h) for steal counts and
  // per-worker busy time, or detaches with nullptr. Must not be called
  // while a ParallelFor is in flight; ScopedPool scopes it to one batch.
  // With no sink attached the pool never reads the clock.
  void set_telemetry(TelemetrySink* sink) { telemetry_ = sink; }
  TelemetrySink* telemetry() const { return telemetry_; }

 private:
  // One ParallelFor call's state, stack-allocated by the caller. Guarded
  // by mu_ except fn, which is written before workers can observe the job
  // and read-only afterwards.
  struct Job {
    FunctionRef<void(size_t, size_t)> fn;
    size_t unclaimed = 0;       // shards still sitting in queues
    size_t unfinished = 0;      // shards not yet done executing
    size_t workers_inside = 0;  // background workers touching this job
  };

  // Worker w's unclaimed shards are w + p * num_threads_ for p in
  // [head, tail): the owner pops at tail, thieves take from head.
  struct WorkerQueue {
    size_t head = 0;
    size_t tail = 0;
  };

  void WorkerLoop(size_t worker) IQS_EXCLUDES(mu_);
  // Claims and runs shards until the job's queues are empty. Called with
  // mu_ held; releases it around each fn invocation (and holds it again
  // on return, as IQS_REQUIRES promises).
  void RunShards(Job* job, size_t worker) IQS_REQUIRES(mu_);

  const size_t num_threads_;
  std::vector<std::unique_ptr<ScratchArena>> arenas_;
  std::vector<std::thread> threads_;

  Mutex mu_;
  CondVar job_cv_;   // background workers wait for jobs
  CondVar done_cv_;  // the caller waits for completion
  // All queue bookkeeping changes together under mu_ (header comment):
  // the job pointer, its epoch, and shutdown. The Job's own fields are
  // guarded by mu_ too — they live on the ParallelFor caller's stack, so
  // the annotation sits on the accessors (RunShards) instead.
  uint64_t job_epoch_ IQS_GUARDED_BY(mu_) = 0;  // bumped once per ParallelFor
  Job* current_job_ IQS_GUARDED_BY(mu_) = nullptr;
  bool shutdown_ IQS_GUARDED_BY(mu_) = false;
  // One per worker, re-dealt by every ParallelFor.
  std::vector<WorkerQueue> queues_ IQS_GUARDED_BY(mu_);

  // Set only between ParallelFor calls (see set_telemetry), read by
  // workers mid-job; each worker writes only its own shard.
  TelemetrySink* telemetry_ = nullptr;
};

}  // namespace iqs

#endif  // IQS_UTIL_THREAD_POOL_H_
