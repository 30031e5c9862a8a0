#include "iqs/join/join_sampler.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "iqs/cover/cover_executor.h"
#include "iqs/cover/cover_plan.h"
#include "iqs/join/active_rank_tree.h"
#include "iqs/join/join_batch.h"
#include "iqs/multidim/point.h"
#include "iqs/util/batch_options.h"
#include "iqs/util/check.h"
#include "iqs/util/rng.h"
#include "iqs/util/scratch_arena.h"
#include "iqs/util/telemetry.h"
#include "iqs/util/thread_annotations.h"

namespace iqs::join {
namespace {

constexpr uint8_t kStart = 0;
constexpr uint8_t kEnd = 1;

// Alias draws of a fill are taken in blocks of this many, so the draw
// scratch stays small whatever P is.
constexpr size_t kAliasBlock = 4096;

// A plan item of phase 3: draw t partners for event-side rectangle `id`
// of relation `rel`; positions come back in plan order.
struct PlanMeta {
  uint32_t id;
  uint8_t rel;
  size_t t;
};

// Pending executor work against ONE tree: the plan (groups captured at
// enqueue time), its item metadata, and the flat position output.
struct PlanState {
  CoverPlan plan;
  std::vector<PlanMeta> meta;
  std::vector<size_t> positions;
};

bool Finite(const multidim::Rect& r) {
  return std::isfinite(r.x_lo) && std::isfinite(r.x_hi) &&
         std::isfinite(r.y_lo) && std::isfinite(r.y_hi);
}

}  // namespace

// The filler thread's working memory, reused across generations.
struct JoinSampler::FillScratch {
  std::vector<size_t> ranks;        // one block of alias draws
  std::vector<size_t> draws_at;     // per start rank: slots of this fill
  PlanState state_r;                // draws FROM tree_r_ (S-side events)
  PlanState state_s;                // draws FROM tree_s_ (R-side events)
  ScratchArena arena;               // executor scratch, reset per flush
};

JoinSampler::JoinSampler(std::span<const multidim::Rect> r,
                         std::span<const multidim::Rect> s,
                         JoinSamplerOptions options)
    : r_(r.begin(), r.end()),
      s_(s.begin(), s.end()),
      tree_r_(r, options.branching),
      tree_s_(s, options.branching) {
  IQS_CHECK(r.size() < kNotDrawing && s.size() < kNotDrawing);

  // Sweep event order (x, START<END, rel, id): STARTs before ENDs at
  // equal x give closed-interval semantics (touching x-extents join);
  // the (rel, id) tail makes ties — and therefore every phase —
  // deterministic functions of the input.
  events_.reserve(2 * (r_.size() + s_.size()));
  for (uint8_t rel = 0; rel < 2; ++rel) {
    const std::vector<multidim::Rect>& rects = rel == 0 ? r_ : s_;
    for (uint32_t i = 0; i < rects.size(); ++i) {
      const multidim::Rect& rect = rects[i];
      // iqs-lint: allow(check-in-loop) -- cold build-path input validation
      IQS_CHECK(Finite(rect) && rect.x_lo <= rect.x_hi &&
                rect.y_lo <= rect.y_hi);
      events_.push_back({rect.x_lo, kStart, rel, i});
      events_.push_back({rect.x_hi, kEnd, rel, i});
    }
  }
  std::sort(events_.begin(), events_.end(),
            [](const SweepEvent& a, const SweepEvent& b) {
              if (a.x != b.x) return a.x < b.x;
              if (a.type != b.type) return a.type < b.type;
              if (a.rel != b.rel) return a.rel < b.rel;
              return a.id < b.id;
            });

  // Phase 1: replay the sweep once, charging each joining pair to the
  // LATER of its two START events (count against the opposite active set
  // BEFORE activating), so the w_e partition J and sum to |J|.
  start_rank_of_.assign(events_.size(), kNotDrawing);
  constexpr ActiveRankTree::Side kCounting = ActiveRankTree::Side::kCounting;
  MutexLock lock(&fill_mu_);
  for (size_t ei = 0; ei < events_.size(); ++ei) {
    const SweepEvent& e = events_[ei];
    ActiveRankTree& own = e.rel == 0 ? tree_r_ : tree_s_;
    if (e.type == kEnd) {
      own.Deactivate(e.id, kCounting);
      continue;
    }
    const multidim::Rect& rect = RectOf(e);
    const ActiveRankTree& opp = e.rel == 0 ? tree_s_ : tree_r_;
    const uint64_t w = opp.CountActive(rect.y_hi, rect.y_lo);
    if (w > 0) {
      start_rank_of_[ei] = static_cast<uint32_t>(start_weight_.size());
      start_weight_.push_back(static_cast<double>(w));
      join_size_ += w;
    }
    own.Activate(e.id, kCounting);
  }
  IQS_DCHECK(tree_r_.active_total(kCounting) == 0 &&
             tree_s_.active_total(kCounting) == 0);
  IQS_CHECK(start_weight_.size() < kNotDrawing);
  if (!start_weight_.empty()) alias_.Build(start_weight_);

  // The pool's two generation buffers are reserved up front: swaps move
  // storage between them and the filler, so nothing grows later.
  if (join_size_ > 0) {
    pool_size_ = std::max(r_.size() + s_.size(), kMinPoolSize);
    MutexLock pool_lock(&mu_);
    current_.reserve(pool_size_);
    standby_.reserve(pool_size_);
  }
  memory_bytes_ = r_.capacity() * sizeof(multidim::Rect) +
                  s_.capacity() * sizeof(multidim::Rect) +
                  events_.capacity() * sizeof(SweepEvent) +
                  start_rank_of_.capacity() * sizeof(uint32_t) +
                  start_weight_.capacity() * sizeof(double) +
                  alias_.MemoryBytes() + tree_r_.MemoryBytes() +
                  tree_s_.MemoryBytes() + 2 * pool_size_ * sizeof(JoinPair);
}

JoinSampler::~JoinSampler() {
  std::thread filler;
  {
    MutexLock lock(&mu_);
    stop_.store(true, std::memory_order_relaxed);
    filler = std::move(filler_);
  }
  cv_.NotifyAll();
  if (filler.joinable()) filler.join();
}

void JoinSampler::SampleJoinBatch(std::span<const JoinBatchQuery> queries,
                                  Rng* rng, ScratchArena* arena,
                                  const BatchOptions& opts,
                                  JoinBatchResult* result) const {
  IQS_CHECK(rng != nullptr && arena != nullptr && result != nullptr);
  IQS_CHECK(opts.max_batch == 0 || queries.size() <= opts.max_batch);
  TelemetrySink* const sink = opts.telemetry;
  const uint64_t start_ns = sink != nullptr ? TelemetryNowNs() : 0;

  result->Clear();
  const size_t nq = queries.size();
  result->offsets.resize(nq + 1);
  result->resolved.resize(nq);
  size_t total = 0;
  for (size_t q = 0; q < nq; ++q) {
    result->offsets[q] = total;
    result->resolved[q] = join_size_ > 0 ? 1 : 0;
    if (join_size_ > 0) total += queries[q].s;
  }
  result->offsets[nq] = total;
  result->pairs.resize(total);

  // The flat result is the concatenation of the query slices in order,
  // so the whole batch is the next `total` pairs of the pool — which is
  // why batch boundaries cannot change what a query receives.
  bool drew_key = false;
  if (total > 0) {
    MutexLock lock(&mu_);
    if (!filler_.joinable()) {
      filler_ = std::thread([this, key = rng->Next64()] { FillLoop(key); });
      drew_key = true;
    }
    size_t done = 0;
    while (done < total) {
      if (cursor_ == current_.size()) {
        if (!standby_ready_) {
          cv_.Wait(&mu_);
          continue;
        }
        current_.swap(standby_);
        cursor_ = 0;
        standby_ready_ = false;
        cv_.NotifyAll();  // the filler starts on the next generation
      }
      const size_t take = std::min(total - done, current_.size() - cursor_);
      std::copy_n(current_.begin() + static_cast<ptrdiff_t>(cursor_), take,
                  result->pairs.begin() + static_cast<ptrdiff_t>(done));
      cursor_ += take;
      done += take;
    }
  }
  if (sink != nullptr) {
    QueryStats* stats = &sink->shard(0)->stats;
    stats->queries += nq;
    stats->samples_emitted += total;
    stats->rng_draws += drew_key ? 1 : 0;
    sink->shard(0)->latency.Record(TelemetryNowNs() - start_ns);
  }
}

void JoinSampler::FillLoop(uint64_t pool_key) const {
  const Rng root(pool_key);
  FillScratch scratch;
  std::vector<JoinPair> buffer;
  for (uint64_t generation = 0;; ++generation) {
    {
      MutexLock lock(&mu_);
      while (standby_ready_ && !stop_.load(std::memory_order_relaxed)) {
        cv_.Wait(&mu_);
      }
      if (stop_.load(std::memory_order_relaxed)) return;
      buffer.swap(standby_);  // borrow the spare storage for the fill
    }
    Rng rng = root.ForkStream(generation);
    {
      MutexLock fill_lock(&fill_mu_);
      if (!Fill(&rng, &scratch, &buffer)) return;
    }
    {
      MutexLock lock(&mu_);
      standby_.swap(buffer);
      standby_ready_ = true;
    }
    cv_.NotifyAll();
  }
}

bool JoinSampler::Fill(Rng* rng, FillScratch* scratch,
                       std::vector<JoinPair>* out) const {
  // Phase 2: alias-assign the pool_size_ slots to START events, tallied
  // per start rank (ranks are in sweep order, so phase 3 reads the
  // tally as it meets each event — no sort of the slots).
  scratch->draws_at.assign(start_weight_.size(), 0);
  for (size_t done = 0; done < pool_size_;) {
    const size_t block = std::min(kAliasBlock, pool_size_ - done);
    scratch->ranks.clear();
    alias_.SampleMany(block, rng, &scratch->ranks);
    for (const size_t rank : scratch->ranks) ++scratch->draws_at[rank];
    done += block;
  }

  out->clear();
  PlanState& state_r = scratch->state_r;
  PlanState& state_s = scratch->state_s;
  state_r.plan.Clear();
  state_r.meta.clear();
  state_s.plan.Clear();
  state_s.meta.clear();

  // Flushes every pending plan query against `tree` through the shared
  // executor pipeline (sequential mode) and appends the drawn pairs.
  const auto flush = [&](PlanState* ps, const ActiveRankTree& tree) {
    if (ps->plan.num_queries() == 0) return;
    ps->positions.clear();
    CoverExecutor::ExecuteOverSampler(ps->plan, tree.sampler(), rng,
                                      &scratch->arena, BatchOptions{},
                                      &ps->positions);
    scratch->arena.Reset();
    size_t off = 0;
    for (const PlanMeta& m : ps->meta) {
      for (size_t d = 0; d < m.t; ++d) {
        const uint32_t other = tree.IdAt(ps->positions[off + d]);
        out->push_back(m.rel == 0 ? JoinPair{m.id, other}
                                  : JoinPair{other, m.id});
      }
      off += m.t;
    }
    IQS_DCHECK(off == ps->positions.size());
    ps->plan.Clear();
    ps->meta.clear();
  };

  // Phase 3: replay the sweep. Covers are captured into the plan at the
  // drawing event (the opposite active set is exactly phase 1's), and a
  // tree's pending plan is flushed just before the tree changes, so
  // captured groups always describe the live Fenwick state they draw on.
  constexpr ActiveRankTree::Side kDrawing = ActiveRankTree::Side::kDrawing;
  for (size_t ei = 0; ei < events_.size(); ++ei) {
    if (stop_.load(std::memory_order_relaxed)) return false;
    const SweepEvent& e = events_[ei];
    ActiveRankTree& own = e.rel == 0 ? tree_r_ : tree_s_;
    flush(e.rel == 0 ? &state_r : &state_s, own);
    if (e.type == kEnd) {
      own.Deactivate(e.id, kDrawing);
      continue;
    }
    const uint32_t rank = start_rank_of_[ei];
    if (rank != kNotDrawing && scratch->draws_at[rank] > 0) {
      const ActiveRankTree& opp = e.rel == 0 ? tree_s_ : tree_r_;
      PlanState* opp_state = e.rel == 0 ? &state_s : &state_r;
      const multidim::Rect& rect = RectOf(e);
      const size_t t = scratch->draws_at[rank];
      opp_state->plan.BeginQuery(t);
      const uint64_t w =
          opp.AppendActiveCover(rect.y_hi, rect.y_lo, &opp_state->plan);
      IQS_DCHECK(static_cast<double>(w) == start_weight_[rank]);
      (void)w;
      opp_state->meta.push_back({e.id, e.rel, t});
    }
    own.Activate(e.id, kDrawing);
  }
  flush(&state_r, tree_r_);
  flush(&state_s, tree_s_);
  IQS_DCHECK(out->size() == pool_size_);
  IQS_DCHECK(tree_r_.active_total(kDrawing) == 0 &&
             tree_s_.active_total(kDrawing) == 0);

  // Sweep output is grouped by event; a Fisher-Yates pass makes every
  // contiguous slice of the generation an i.i.d. sequence.
  for (size_t i = out->size(); i > 1; --i) {
    std::swap((*out)[i - 1], (*out)[rng->Below(i)]);
  }
  return true;
}

}  // namespace iqs::join
