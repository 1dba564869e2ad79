// Bounded retry with exponential backoff over the virtual clock.
//
// Every disk request a cache manager issues goes through this policy: a
// failed attempt is retried after a backoff delay (charged to the simulated
// clock, never a wall clock), the delay doubles per attempt up to a cap, and
// the whole operation is bounded both by an attempt count and by a per-op
// virtual-time deadline. An operation that exhausts its deadline surfaces as
// Status::kTimeout so callers can distinguish "the disk said no" from "the
// disk stopped answering in time" — the latter is what trips the managers'
// disk-degraded escalation.

#ifndef FLASHTIER_DISK_RETRY_POLICY_H_
#define FLASHTIER_DISK_RETRY_POLICY_H_

#include <cstdint>

#include "src/flash/timing.h"

namespace flashtier {

struct RetryPolicy {
  // Backoff before the first retry; doubles per retry up to kMaxBackoffUs.
  static constexpr uint64_t kInitialBackoffUs = 500;
  static constexpr uint64_t kMaxBackoffUs = 64'000;

  // Total attempts per operation (first try included). 1 disables retry.
  uint32_t max_attempts = 4;
  // Virtual-time budget for one operation including retries; an operation
  // still failing past this point returns kTimeout. 0 disables the deadline.
  uint64_t op_deadline_us = 250'000;

  // Backoff before retry number `attempt` (1-based), capped.
  uint64_t BackoffUs(uint32_t attempt) const {
    uint64_t us = kInitialBackoffUs;
    for (uint32_t i = 1; i < attempt && us < kMaxBackoffUs; ++i) {
      us *= 2;
    }
    return us < kMaxBackoffUs ? us : kMaxBackoffUs;
  }
};

// Drives one operation's retry loop. Usage:
//
//   RetrySession session(policy, clock);
//   Status s = op();
//   while (!IsOk(s) && session.BackoffBeforeRetry()) s = op();
//   if (!IsOk(s) && session.deadline_exceeded()) s = Status::kTimeout;
//
// BackoffBeforeRetry charges the backoff delay to the virtual clock and
// returns false once the attempt bound or the deadline is exhausted.
class RetrySession {
 public:
  RetrySession(const RetryPolicy& policy, SimClock* clock)
      : policy_(policy), clock_(clock), start_us_(clock->now_us()) {}

  bool BackoffBeforeRetry() {
    if (attempts_ + 1 >= policy_.max_attempts) {
      return false;
    }
    const uint64_t backoff = policy_.BackoffUs(attempts_ + 1);
    if (policy_.op_deadline_us != 0 &&
        clock_->now_us() - start_us_ + backoff >= policy_.op_deadline_us) {
      deadline_exceeded_ = true;
      return false;
    }
    clock_->Advance(backoff);
    ++attempts_;
    return true;
  }

  // True once the per-op deadline killed the operation (reported as
  // kTimeout), as opposed to the attempt bound (original error propagates).
  bool deadline_exceeded() const {
    return deadline_exceeded_ ||
           (policy_.op_deadline_us != 0 &&
            clock_->now_us() - start_us_ >= policy_.op_deadline_us);
  }

  uint32_t retries() const { return attempts_; }

 private:
  RetryPolicy policy_;
  SimClock* clock_;  // not owned
  uint64_t start_us_;
  uint32_t attempts_ = 0;  // retries taken so far (beyond the first try)
  bool deadline_exceeded_ = false;
};

}  // namespace flashtier

#endif  // FLASHTIER_DISK_RETRY_POLICY_H_
