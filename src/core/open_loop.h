// Queue-depth-N request bracketing over a shard's SimClock; every replay
// runs through it.
//
// At depth 1 each request is issued when the previous one completes, so
// per-request latency bounds throughput (1e6 / 77us for reads). At depth N
// up to N host requests are in flight: a new request's submit time is the
// moment a queue slot frees — the earliest in-flight completion once the
// queue is full — rather than the last completion. The chain rewinds to
// that submit time (SimClock::BeginRequest) and the FlashPipeline's
// per-plane/per-channel resource frontiers carry the contention between
// overlapping requests.
//
// Determinism: submit and completion times are a pure function of the
// per-shard request stream — the min-heap pops the smallest completion time
// (ties don't matter: equal keys yield equal submits), and BeginRequest
// clamps submits to a nondecreasing issue floor. Thread count never enters.

#ifndef FLASHTIER_CORE_OPEN_LOOP_H_
#define FLASHTIER_CORE_OPEN_LOOP_H_

#include <algorithm>
#include <cstdint>
#include <queue>
#include <vector>

#include "src/flash/timing.h"

namespace flashtier {

class OpenLoopQueue {
 public:
  OpenLoopQueue(SimClock* clock, uint32_t depth)
      : clock_(clock), depth_(depth == 0 ? 1 : depth), last_submit_(clock->now_us()) {}

  // Brackets the start of the next request: waits for a queue slot if all
  // `depth` are in flight, rewinds the chain to the submit time, and returns
  // it. The device work the caller performs next extends the chain from here.
  uint64_t Begin() {
    uint64_t submit = last_submit_;
    if (inflight_.size() >= depth_) {
      const uint64_t freed = inflight_.top();
      inflight_.pop();
      if (freed > submit) {
        submit = freed;
      }
    }
    last_submit_ = submit;
    return clock_->BeginRequest(submit);
  }

  // Brackets the end of the request submitted at `submit_us`: records its
  // completion (the chain's current frontier) in the in-flight set and
  // returns the request's submit-to-complete latency.
  uint64_t End(uint64_t submit_us) {
    const uint64_t done = clock_->now_us();
    inflight_.push(done);
    return done >= submit_us ? done - submit_us : 0;
  }

  // Waits for every in-flight request, leaving the chain at the last
  // completion — so a run's elapsed time covers all issued work.
  void Drain() {
    uint64_t last = clock_->now_us();
    while (!inflight_.empty()) {
      if (inflight_.top() > last) {
        last = inflight_.top();
      }
      inflight_.pop();
    }
    clock_->BeginRequest(last);
  }

  uint32_t depth() const { return depth_; }

 private:
  SimClock* clock_;  // not owned
  uint32_t depth_;
  uint64_t last_submit_;
  // Completion times of in-flight requests; min-heap so Begin pops the
  // earliest-freeing slot.
  std::priority_queue<uint64_t, std::vector<uint64_t>, std::greater<uint64_t>> inflight_;
};

// The measured span of one open-loop run: from its first request's submit to
// its last completion, since overlapping per-request latencies must not be
// summed.
struct OpenLoopSpan {
  uint64_t first_submit = ~uint64_t{0};
  uint64_t last_done = 0;
  bool any_measured = false;

  void Add(uint64_t submit_us, uint64_t latency_us) {
    any_measured = true;
    first_submit = std::min(first_submit, submit_us);
    last_done = std::max(last_done, submit_us + latency_us);
  }
  uint64_t ElapsedUs() const { return any_measured ? last_done - first_submit : 0; }
};

}  // namespace flashtier

#endif  // FLASHTIER_CORE_OPEN_LOOP_H_
