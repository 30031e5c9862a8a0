#include "iqs/util/thread_pool.h"

#include "iqs/util/telemetry.h"

namespace iqs {

ThreadPool::ThreadPool(size_t num_threads)
    : num_threads_(num_threads), queues_(num_threads) {
  IQS_CHECK(num_threads >= 1);
  arenas_.reserve(num_threads_);
  for (size_t w = 0; w < num_threads_; ++w) {
    arenas_.push_back(std::make_unique<ScratchArena>());
  }
  threads_.reserve(num_threads_ - 1);
  for (size_t w = 1; w < num_threads_; ++w) {
    threads_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    IQS_CHECK(current_job_ == nullptr);  // destroying a pool mid-ParallelFor
    shutdown_ = true;
  }
  job_cv_.NotifyAll();
  for (std::thread& thread : threads_) thread.join();
}

void ThreadPool::ParallelFor(size_t num_shards,
                             FunctionRef<void(size_t, size_t)> fn) {
  if (num_shards == 0) return;
  if (num_threads_ == 1 || num_shards == 1) {
    // Inline fast path; also what a transient single-worker pool runs.
    if (telemetry_ != nullptr) {
      const uint64_t start_ns = TelemetryNowNs();
      for (size_t shard = 0; shard < num_shards; ++shard) fn(shard, 0);
      telemetry_->shard(0)->stats.busy_ns += TelemetryNowNs() - start_ns;
      return;
    }
    for (size_t shard = 0; shard < num_shards; ++shard) fn(shard, 0);
    return;
  }

  Job job{fn, /*unclaimed=*/num_shards, /*unfinished=*/num_shards,
          /*workers_inside=*/0};

  mu_.Lock();
  IQS_CHECK(current_job_ == nullptr);  // nested/concurrent ParallelFor
  // Deal shards round-robin so every worker starts with local work; the
  // stealing in RunShards rebalances whatever the deal gets wrong.
  for (size_t w = 0; w < num_threads_; ++w) {
    queues_[w] = WorkerQueue{0, (num_shards + num_threads_ - 1 - w) /
                                    num_threads_};
  }
  current_job_ = &job;
  ++job_epoch_;
  job_cv_.NotifyAll();

  RunShards(&job, /*worker=*/0);
  // The caller ran out of claimable work, but stolen shards may still be
  // executing elsewhere, and `job` lives on this stack frame: wait until
  // every shard is done AND every background worker has let go of the job
  // before tearing it down.
  while (!(job.unfinished == 0 && job.workers_inside == 0)) {
    done_cv_.Wait(&mu_);
  }
  current_job_ = nullptr;
  mu_.Unlock();
}

void ThreadPool::WorkerLoop(size_t worker) {
  mu_.Lock();
  uint64_t seen_epoch = 0;
  while (true) {
    while (!(shutdown_ ||
             (current_job_ != nullptr && job_epoch_ != seen_epoch))) {
      job_cv_.Wait(&mu_);
    }
    if (shutdown_) {
      mu_.Unlock();
      return;
    }
    seen_epoch = job_epoch_;
    Job* job = current_job_;
    ++job->workers_inside;
    RunShards(job, worker);
    --job->workers_inside;
    if (job->unfinished == 0 && job->workers_inside == 0) {
      done_cv_.NotifyAll();
    }
  }
}

void ThreadPool::RunShards(Job* job, size_t worker) {
  while (job->unclaimed > 0) {
    // Own queue first (LIFO: the most recently dealt shard's queries are
    // the likeliest to share cover nodes with the last one served), then
    // steal FIFO from the other workers, scanning from the next index so
    // thieves spread out instead of all raiding worker 0.
    size_t shard = 0;
    bool found = false;
    bool stolen = false;
    WorkerQueue& own = queues_[worker];
    if (own.head < own.tail) {
      shard = worker + --own.tail * num_threads_;
      found = true;
    } else {
      for (size_t k = 1; k < num_threads_ && !found; ++k) {
        const size_t victim = (worker + k) % num_threads_;
        WorkerQueue& queue = queues_[victim];
        if (queue.head < queue.tail) {
          shard = victim + queue.head++ * num_threads_;
          found = true;
          stolen = true;
        }
      }
    }
    // Queues and the unclaimed count change together under mu_, so a
    // positive count guarantees a find; the bail-out is belt-and-braces.
    IQS_DCHECK(found);
    if (!found) return;
    --job->unclaimed;

    mu_.Unlock();
    if (telemetry_ != nullptr) {
      TelemetryShard* tshard = telemetry_->shard(worker);
      if (stolen) ++tshard->stats.steals;
      const uint64_t start_ns = TelemetryNowNs();
      job->fn(shard, worker);
      tshard->stats.busy_ns += TelemetryNowNs() - start_ns;
    } else {
      job->fn(shard, worker);
    }
    mu_.Lock();

    if (--job->unfinished == 0) done_cv_.NotifyAll();
  }
}

}  // namespace iqs
