// Semi-dynamic (insert-only) weighted range sampling via the logarithmic
// method (Bentley–Saxe), applied to the Theorem-3 structure — the generic
// dynamization route for Direction 1 (paper Section 9) when the workload
// is append-heavy.
//
// The set is partitioned into O(log n) static ChunkedRangeSampler
// components with sizes that are distinct powers of two. An insert adds a
// size-1 component and merges equal-sized components like binary
// addition: amortized O(log n) merge work per insert (each element is
// rebuilt once per level it passes through). A query resolves its
// interval in every component (O(log² n) binary searches + prefix-sum
// weight lookups), splits the budget Multinomial(s; component range
// weights), and delegates to each component's O(log + s_i) query —
// O(log² n + s) total, with exactly the Theorem-3 output law and full
// cross-query independence.
//
// Concurrency (epoch-based snapshot publication, util/epoch.h): the
// component set is an IMMUTABLE version behind a Versioned<> root. Every
// reader entry point pins one Snapshot and serves entirely against it, so
// queries never block on inserts and never observe a half-merged
// component set; each Insert builds the merged components privately
// (ChunkedRangeSampler builds run on the maintenance pool when one is
// attached), publishes a new version, and retires the consumed components
// through the grace-period machinery. Readers scale to any thread count;
// writers must be externally serialized only against each OTHER — Insert
// takes an internal mutex, so plain concurrent Insert calls are also
// safe. With no concurrent writer, the sample stream is byte-identical to
// the pre-epoch implementation under a fixed seed.
//
// Trade-off triangle (all in this library): this structure has the
// cheapest queries per sample among the dynamic options but no deletes;
// DynamicRangeSampler (treap) does deletes at O(log n) per sample;
// rebuilding a static sampler from scratch is the strawman.
//
// Keys must be distinct across the whole set (as in RangeSampler).

#ifndef IQS_RANGE_LOGARITHMIC_RANGE_SAMPLER_H_
#define IQS_RANGE_LOGARITHMIC_RANGE_SAMPLER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "iqs/range/chunked_range_sampler.h"
#include "iqs/util/batch_options.h"
#include "iqs/util/check.h"
#include "iqs/util/epoch.h"
#include "iqs/util/rng.h"
#include "iqs/util/thread_annotations.h"
#include "iqs/util/scratch_arena.h"

namespace iqs {

// One key-interval query of a serving batch.
struct KeyBatchQuery {
  double lo = 0.0;
  double hi = 0.0;
  size_t s = 0;
};

// Flat result of a key-returning QueryBatch call: keys for query i occupy
// keys[offsets[i] .. offsets[i+1]).
struct KeyBatchResult {
  std::vector<double> keys;
  std::vector<size_t> offsets;    // size num_queries() + 1
  std::vector<uint8_t> resolved;  // 1 iff the interval was nonempty

  size_t num_queries() const { return resolved.size(); }

  std::span<const double> SamplesFor(size_t i) const {
    IQS_DCHECK(i + 1 < offsets.size());
    return std::span<const double>(keys).subspan(
        offsets[i], offsets[i + 1] - offsets[i]);
  }

  void Clear() {
    keys.clear();
    offsets.clear();
    resolved.clear();
  }
};

class LogarithmicRangeSampler {
 public:
  LogarithmicRangeSampler();
  ~LogarithmicRangeSampler();

  // Versioned root + internal writer mutex make the type address-stable.
  LogarithmicRangeSampler(const LogarithmicRangeSampler&) = delete;
  LogarithmicRangeSampler& operator=(const LogarithmicRangeSampler&) = delete;

  // Attaches a maintenance pool: carry-merge component rebuilds (the
  // per-chunk alias-table builds) and retired-version teardown run as
  // ParallelFors over the pool instead of on the inserting thread. The
  // pool must outlive the sampler's last Insert and must not be
  // mid-ParallelFor when Insert is called (so don't share it with the
  // serving-side BatchOptions pool of an in-flight parallel batch). The
  // built components are bit-identical with or without a pool.
  void set_maintenance_pool(ThreadPool* pool) { pool_ = pool; }

  // Attaches a sink for the epoch counters (versions_published /
  // versions_reclaimed / reader_pins / rebuild_ns), recorded by the
  // serialized insert path into shard 0. Give this structure its own sink
  // — reader-side batches recording into the same sink would race.
  void set_telemetry(TelemetrySink* sink) { sink_ = sink; }

  // Inserts an element. The key must be finite and the weight finite and
  // positive (both checked); keys must be globally distinct (checked
  // during merges in debug builds). Amortized O(log n) element-moves per insert. Publishes a new
  // immutable version; in-flight readers keep serving the old one.
  void Insert(double key, double weight);

  // Draws `s` independent weighted samples from keys in [lo, hi],
  // appending sampled KEYS to `out`; false when the range is empty.
  // O(log² n + s). Runs against one pinned snapshot.
  bool Query(double lo, double hi, size_t s, Rng* rng,
             std::vector<double>* out) const;

  // Batched serving fast path: every query contributes one cover group
  // per component its interval intersects; the CoverExecutor performs the
  // multinomial splits, and draws are coalesced BY COMPONENT so all
  // queries' draws into one Bentley-Saxe component ride a single chunked
  // batched call. The ENTIRE batch executes against one pinned snapshot,
  // so concurrent inserts never skew a batch's law mid-flight. Serves
  // sequentially in every mode: opts.num_threads and opts.pool are
  // ignored. Canonical order (queries, rng, arena, opts, &result).
  void QueryBatch(std::span<const KeyBatchQuery> queries, Rng* rng,
                  ScratchArena* arena, const BatchOptions& opts,
                  KeyBatchResult* result) const;

  // Convenience: default options.
  void QueryBatch(std::span<const KeyBatchQuery> queries, Rng* rng,
                  ScratchArena* arena, KeyBatchResult* result) const;

  // Total weight of keys in [lo, hi]. O(log² n).
  double RangeWeight(double lo, double hi) const;

  size_t size() const { return versions_.Acquire()->size; }
  bool empty() const { return size() == 0; }
  // Number of live components (<= log2(n) + 1); exposed for tests.
  size_t num_components() const;

  size_t MemoryBytes() const;

  // Epoch machinery, exposed for tests (retired_pending bounds,
  // reader-pin accounting) and for callers that want an explicit
  // Reclaim/Drain point.
  EpochManager* epoch_manager() const { return versions_.epoch_manager(); }
  uint64_t versions_published() const { return versions_.versions_published(); }

 private:
  struct Component {
    std::vector<double> keys;     // sorted
    std::vector<double> weights;  // parallel
    std::vector<double> weight_prefix;
    std::unique_ptr<ChunkedRangeSampler> sampler;
  };

  // An immutable published version: components[i] is null or points to a
  // component of exactly 2^i elements. Versions do NOT own components —
  // consecutive versions share the unconsumed ones; ownership is the
  // retire protocol's (a component is deleted once retired and its grace
  // period expires, or by ~LogarithmicRangeSampler for the live version).
  struct Version {
    std::vector<const Component*> components;
    size_t size = 0;
  };

  // Builds prefix sums + sampler for a component whose keys/weights are
  // already sorted; chunk builds run on `pool` when non-null.
  static void Finalize(Component* component, ThreadPool* pool);

  Versioned<Version> versions_;
  Mutex writer_mu_;  // serializes Insert
  ThreadPool* pool_ = nullptr;
  TelemetrySink* sink_ = nullptr;
  // Writer-side trackers turning the epoch totals into sink deltas.
  uint64_t last_reclaimed_ IQS_GUARDED_BY(writer_mu_) = 0;
  uint64_t last_pins_ IQS_GUARDED_BY(writer_mu_) = 0;
};

}  // namespace iqs

#endif  // IQS_RANGE_LOGARITHMIC_RANGE_SAMPLER_H_
