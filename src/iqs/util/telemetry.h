// Serving telemetry: zero-overhead-when-off counters and latency
// histograms for the batched query-serving pipeline.
//
// Design (mirrors the threading model of DESIGN.md section 2.5):
//
//   * A TelemetrySink owns an array of per-worker TelemetryShards. Hot
//     paths receive an optional `TelemetrySink*` through BatchOptions and
//     guard every recording site with ONE null check — with no sink
//     attached the serving pipeline executes exactly the uninstrumented
//     instruction stream (bench_telemetry / E22 keeps the disabled-mode
//     cost under 2% of E19). There are NO atomics anywhere: during a
//     parallel batch each worker writes only its own shard (worker 0 is
//     the calling thread, as in ThreadPool), and shards are merged only
//     after the batch joins, by the reader.
//
//   * Recording NEVER touches an Rng. Attaching a sink must not perturb
//     any sample stream — parallel_batch_test pins byte-identity across
//     thread counts with a sink attached.
//
// Counter ownership (each event is counted at exactly one layer, so
// nested pipelines — e.g. CoverageEngine serving through the chunked
// sampler — do not double-count):
//
//   queries, cover_groups   the outermost CoverExecutor split stage of a
//                           batch (Split / ExecuteParallel); nested
//                           QueryPositionsBatch calls made by a backend
//                           run without a sink.
//   samples_emitted         the executor draw stage (Execute /
//                           ExecuteOverSampler / ExecuteParallel) and the
//                           manual-serve QueryBatch paths (range trees,
//                           logarithmic) that split via CoverExecutor but
//                           own their draw loops.
//   rng_draws               randomness words requested by the cover
//                           pipeline itself: multinomial budget splits
//                           (s draws per query with >= 2 groups) and
//                           parallel batch keys. Backend-internal draws
//                           (tree descents, alias picks) are not counted.
//   nodes_visited           lane-level steps of StaticBst's grouped
//                           descent kernel (lanes x levels) — the node
//                           loads that dominate the 1-d hot path.
//   rejection_attempts      candidate positions tested by
//                           CoverageEngine::SampleWithRejection; equals
//                           the number of `accepts` invocations
//                           (cross-checked in telemetry_test).
//   rejection_rounds        retry rounds of the same loop.
//   arena_bytes_hwm         high-water ScratchArena capacity observed at
//                           the executor (max, not sum).
//   em_reads / em_writes    em::BlockDevice I/Os when a device has a sink
//                           attached; equals the device's own counters.
//   steals / busy_ns        ThreadPool: shards claimed from another
//                           worker's deque, and per-worker wall time
//                           inside shard bodies (only measured when a
//                           sink is attached — the clock is never read
//                           otherwise).
//   versions_published /    the serialized writer path of an epoch-
//   versions_reclaimed /    versioned structure (util/epoch.h): versions
//   reader_pins /           swapped in / freed after grace, reader
//   rebuild_ns              snapshot pins, and off-read-path rebuild wall
//                           time (timed only when the structure has a
//                           sink attached — the clock is never read
//                           otherwise). Writer-recorded into shard 0 of
//                           the STRUCTURE's own sink, so reader-side
//                           batch recording must use a different sink.
//
// Latency histograms are log-bucketed (bucket b holds [2^(b-1), 2^b) ns)
// and merge by bucket-wise addition, which is associative and
// commutative — shard merge order cannot change the result
// (telemetry_test pins this). QueryBatch-style entry points record one
// `latency` sample per batch call into shard 0.
//
// A MetricsRegistry is a named collection of sinks with a text/JSON
// exporter (schema in README "Observability"); bench binaries attach
// registry sinks and dump the registry next to their timing JSON so
// bench/export_bench_json.sh collects both.

#ifndef IQS_UTIL_TELEMETRY_H_
#define IQS_UTIL_TELEMETRY_H_

#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "iqs/util/check.h"
#include "iqs/util/thread_annotations.h"

namespace iqs {

// Additive counters of one serving shard. Plain uint64 adds on the owning
// worker's shard; merged after the batch joins.
struct QueryStats {
  uint64_t queries = 0;
  uint64_t samples_emitted = 0;
  uint64_t rng_draws = 0;
  uint64_t nodes_visited = 0;
  uint64_t cover_groups = 0;
  uint64_t rejection_attempts = 0;
  uint64_t rejection_rounds = 0;
  uint64_t arena_bytes_hwm = 0;  // max-merged, not summed
  uint64_t em_reads = 0;
  uint64_t em_writes = 0;
  uint64_t steals = 0;
  uint64_t busy_ns = 0;
  // Epoch/snapshot publication layer (iqs/util/epoch.h): versions
  // published / reclaimed by the versioned samplers, reader snapshot pins,
  // and wall time spent rebuilding components off the read path. Recorded
  // by the writer path of a versioned structure into ITS sink's shard 0
  // (the structure's writers are serialized, so plain adds stay race-free;
  // give each versioned structure a sink of its own).
  uint64_t versions_published = 0;
  uint64_t versions_reclaimed = 0;
  uint64_t reader_pins = 0;
  uint64_t rebuild_ns = 0;
  // Never written: libiqs has one kernel backend (simd/dispatch.h). Kept
  // only because perfbench reads it; a later benchmark change can drop it.
  uint64_t backend_mask = 0;

  void MergeFrom(const QueryStats& other);
  bool operator==(const QueryStats&) const = default;
};

// Log-bucketed latency histogram: bucket 0 holds {0}, bucket b >= 1 holds
// [2^(b-1), 2^b) ns; 65 buckets cover the full uint64 range. Merging adds
// bucket counts, so any grouping of shard merges yields the same result.
class LatencyHistogram {
 public:
  static constexpr size_t kNumBuckets = 65;

  void Record(uint64_t ns) {
    ++buckets_[BucketOf(ns)];
    ++count_;
    sum_ns_ += ns;
    if (ns > max_ns_) max_ns_ = ns;
  }

  void MergeFrom(const LatencyHistogram& other);

  uint64_t count() const { return count_; }
  uint64_t sum_ns() const { return sum_ns_; }
  uint64_t max_ns() const { return max_ns_; }
  uint64_t bucket(size_t b) const {
    IQS_DCHECK(b < kNumBuckets);
    return buckets_[b];
  }

  // Upper bound (exclusive, in ns) of the smallest bucket whose
  // cumulative count reaches fraction `p` of all recordings; 0 when
  // empty. An upper BOUND because bucket resolution is a power of two.
  uint64_t PercentileUpperBoundNs(double p) const;

  static size_t BucketOf(uint64_t ns) {
    return static_cast<size_t>(std::bit_width(ns));
  }
  static uint64_t BucketLowerBoundNs(size_t b) {
    return b == 0 ? 0 : uint64_t{1} << (b - 1);
  }

  void Reset() { *this = LatencyHistogram{}; }

  bool operator==(const LatencyHistogram&) const = default;

 private:
  uint64_t buckets_[kNumBuckets] = {};
  uint64_t count_ = 0;
  uint64_t sum_ns_ = 0;
  uint64_t max_ns_ = 0;
};

// One worker's slice of a sink. Cacheline-aligned so two workers'
// recording never false-shares.
struct alignas(64) TelemetryShard {
  QueryStats stats;
  LatencyHistogram latency;
};

// The handle threaded through BatchOptions. Per-worker shards; no
// atomics; merge after join. Worker w of a parallel batch writes
// shard(w); every sequential path writes shard(0).
class TelemetrySink {
 public:
  // Must cover the largest worker count the sink will ever see; the
  // default comfortably exceeds ThreadPool sizes in this library.
  static constexpr size_t kDefaultShards = 64;

  explicit TelemetrySink(size_t num_shards = kDefaultShards)
      : shards_(num_shards) {
    IQS_CHECK(num_shards >= 1);
  }

  TelemetrySink(const TelemetrySink&) = delete;
  TelemetrySink& operator=(const TelemetrySink&) = delete;

  size_t num_shards() const { return shards_.size(); }

  TelemetryShard* shard(size_t worker) {
    IQS_DCHECK(worker < shards_.size());
    return &shards_[worker];
  }
  const TelemetryShard& shard(size_t worker) const {
    IQS_DCHECK(worker < shards_.size());
    return shards_[worker];
  }

  // Shard-merged views. Only call after every batch recording into this
  // sink has joined (no concurrent writers).
  QueryStats MergedStats() const;
  LatencyHistogram MergedLatency() const;

  void Reset();

 private:
  std::vector<TelemetryShard> shards_;
};

// Monotonic nanosecond clock for latency recording. Call sites must gate
// on a non-null sink so the disabled mode never reads the clock.
inline uint64_t TelemetryNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Named sinks plus an exporter. GetOrCreate is mutex-guarded (sinks
// register once per component, off the hot path); recording goes straight
// to the returned sink and never touches the registry. Export only when
// no batch is in flight.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Process-wide convenience instance.
  static MetricsRegistry& Global();

  // Returns the sink registered under `name`, creating it on first use.
  // The pointer stays valid for the registry's lifetime.
  TelemetrySink* GetOrCreate(std::string_view name,
                             size_t num_shards = TelemetrySink::kDefaultShards);

  // Returns the sink registered under `name`, or nullptr.
  TelemetrySink* Find(std::string_view name);

  void ResetAll();

  // JSON object {"telemetry": {"<name>": {"counters": {...},
  // "latency_ns": {...}}}}; schema documented in README "Observability".
  std::string ToJson() const;

  // Human-readable table of the same content.
  std::string ToText() const;

 private:
  mutable Mutex mu_;
  // Insertion-ordered so exports are stable.
  std::vector<std::pair<std::string, std::unique_ptr<TelemetrySink>>> sinks_
      IQS_GUARDED_BY(mu_);
};

}  // namespace iqs

#endif  // IQS_UTIL_TELEMETRY_H_
