// One-shot completion slot for a single query submitted to the serving
// frontend (serve/frontend.h) — the future half of Submit(query) ->
// future.
//
// A ServeTicket is CALLER-OWNED storage: producers keep an array of
// tickets (reusable via Reset), so the hot submit path allocates nothing
// and the completion handoff is one release-store plus an atomic notify.
// The frontend completes every admitted ticket exactly once — a second
// Complete on the same ticket aborts via IQS_CHECK, which is how the
// drain/shutdown tests turn "no double-completed futures" into a
// construction-time guarantee rather than a test-only assertion.
//
// Lifetime contract: between Submit and the ticket reaching a terminal
// status the ticket must stay alive and must not be Reset or moved; after
// Wait() returns (or status() reads a terminal state with acquire
// semantics, which it does) the samples are safe to read from the
// submitting thread. An armed OnComplete hook runs after the terminal
// state is published; Wait() also waits for it to return, so Reset after
// Wait() is safe, while Reset after a terminal status() alone is not.
//
// Two completion modes:
//   * Blocking: the submitter calls Wait() (the original mode).
//   * Continuation: arm an OnComplete hook BEFORE submitting; the
//     completing thread invokes it once, immediately after the terminal
//     state is published, with the terminal samples()/status() already
//     safe to read inside the hook. See set_on_complete for the threading
//     and re-submission rules. Both modes observe the same exactly-once
//     guarantee — the hook fires from inside the one Complete call that
//     the IQS_CHECK admits.

#ifndef IQS_SERVE_TICKET_H_
#define IQS_SERVE_TICKET_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "iqs/util/check.h"

namespace iqs {
namespace serve {

// Terminal states of a submitted query; kPending is the in-flight state.
enum class ServeStatus : uint32_t {
  kPending = 0,
  kOk = 1,        // sampled; samples() holds the draws
  kEmpty = 2,     // the interval resolved to no elements — zero draws, by law
  kRejected = 3,  // admission control refused the submit (kReject policy,
                  // or the frontend was draining)
  kShed = 4,      // flushed after ServeOptions::deadline_ns in queue; the
                  // batch shed it instead of sampling
};

inline const char* ServeStatusName(ServeStatus status) {
  switch (status) {
    case ServeStatus::kPending:
      return "pending";
    case ServeStatus::kOk:
      return "ok";
    case ServeStatus::kEmpty:
      return "empty";
    case ServeStatus::kRejected:
      return "rejected";
    case ServeStatus::kShed:
      return "shed";
  }
  return "?";
}

template <typename Sample>
class ServeTicket {
 public:
  ServeTicket() = default;
  ServeTicket(const ServeTicket&) = delete;
  ServeTicket& operator=(const ServeTicket&) = delete;

  // Blocks until the query reaches a terminal status AND its OnComplete
  // hook (if armed) has returned, then returns the status — so the
  // submitter may Reset and resubmit as soon as Wait returns.
  ServeStatus Wait() const {
    uint32_t s = state_.load(std::memory_order_acquire);
    while ((s & kSettled) == 0) {
      state_.wait(s, std::memory_order_acquire);
      s = state_.load(std::memory_order_acquire);
    }
    return static_cast<ServeStatus>(s & ~kSettled);
  }

  // Non-blocking peek; acquire, so a terminal read publishes samples().
  // Terminal as soon as the state is published, which is before the
  // OnComplete hook runs: a poller must not Reset on this alone while a
  // hook may still be running (Wait covers that).
  ServeStatus status() const {
    return static_cast<ServeStatus>(state_.load(std::memory_order_acquire) &
                                     ~kSettled);
  }

  // The query's draws; valid once the ticket is terminal with kOk (empty
  // for every other terminal state). Retains capacity across Reset, so a
  // reused ticket settles into zero steady-state allocations.
  const std::vector<Sample>& samples() const { return samples_; }

  // Completion-side timestamps (TelemetryNowNs clock): when the frontend
  // admitted the query and when it completed. Valid once terminal; the
  // difference is the query's full submit-to-complete latency, measured
  // with no consumer-side scheduling skew (the bench relies on this).
  uint64_t submit_ns() const { return submit_ns_; }
  uint64_t complete_ns() const { return complete_ns_; }
  uint64_t LatencyNs() const { return complete_ns_ - submit_ns_; }

  // Continuation mode: arms a hook the completing thread invokes exactly
  // once, after the terminal state is published (status()/samples() are
  // terminal-and-readable inside the hook). Must be armed while the
  // ticket is NOT in flight — arming races with Complete otherwise; like
  // the rest of the ticket this is a one-shot SPSC handoff, not a locked
  // object. The hook runs on WHOEVER completes the ticket: the shard
  // worker for flushed queries (keep it short — it serializes with that
  // shard's batches), the submitting thread itself for kRejected. The
  // hook survives Reset(), so a reusable continuation is armed once per
  // ticket, not once per submit; arm an empty function to disarm. A hook
  // may Reset-and-resubmit its own ticket, but submitting to the hook's
  // own shard under AdmissionPolicy::kBlock can deadlock the worker on
  // its own queue — use kReject (or another shard) for self-resubmission.
  void set_on_complete(std::function<void(const ServeTicket&)> hook) {
    on_complete_ = std::move(hook);
  }

  // Rearms a terminal ticket for another Submit (the OnComplete hook, if
  // any, stays armed). Must not be called on an in-flight ticket (the
  // frontend still holds a pointer to it).
  void Reset() {
    samples_.clear();
    state_.store(static_cast<uint32_t>(ServeStatus::kPending),
                 std::memory_order_relaxed);
  }

  // FRONTEND-INTERNAL: publishes the terminal state, then fires the
  // OnComplete hook (if armed), then marks the ticket settled and wakes
  // Wait. Exactly-once is enforced — completing a non-pending ticket
  // aborts, so the hook cannot fire twice per submit.
  void Complete(ServeStatus status, std::span<const Sample> samples,
                uint64_t complete_ns) {
    IQS_DCHECK(status != ServeStatus::kPending);
    samples_.assign(samples.begin(), samples.end());
    complete_ns_ = complete_ns;
    const uint32_t terminal = static_cast<uint32_t>(status);
    const bool hooked = static_cast<bool>(on_complete_);
    uint32_t expected = static_cast<uint32_t>(ServeStatus::kPending);
    IQS_CHECK(state_.compare_exchange_strong(
        expected, hooked ? terminal : terminal | kSettled,
        std::memory_order_release, std::memory_order_relaxed));
    if (hooked) {
      on_complete_(*this);
      // Settle only the completion this call published: a hook that
      // Reset and resubmitted its own ticket has moved the state on.
      expected = terminal;
      state_.compare_exchange_strong(expected, terminal | kSettled,
                                     std::memory_order_release,
                                     std::memory_order_relaxed);
    }
    state_.notify_all();
  }

  // FRONTEND-INTERNAL: stamped on admission, before the ticket is queued.
  void set_submit_ns(uint64_t ns) { submit_ns_ = ns; }

 private:
  // Not IQS_GUARDED_BY anything: this is a one-shot SPSC handoff ordered
  // by state_ alone. The worker writes samples_/complete_ns_ and then
  // release-stores a terminal status; the submitter reads them only after
  // an acquire load of state_ observes that status (Wait/status). No
  // mutex exists to name, and none is needed.
  // state_ = a ServeStatus, plus kSettled once the OnComplete hook (if
  // any) has returned; Wait waits for kSettled, status() masks it off.
  static constexpr uint32_t kSettled = uint32_t{1} << 31;

  std::vector<Sample> samples_;
  std::function<void(const ServeTicket&)> on_complete_;  // armed while idle
  uint64_t submit_ns_ = 0;
  uint64_t complete_ns_ = 0;
  std::atomic<uint32_t> state_{static_cast<uint32_t>(ServeStatus::kPending)};
};

}  // namespace serve
}  // namespace iqs

#endif  // IQS_SERVE_TICKET_H_
