// Flash operation latencies (Table 2) and a virtual clock.
//
// Time is virtual and per shard. The clock tracks the *dependency chain* of
// the host request currently being processed: every serialized charge
// (Advance) or pipelined completion (SyncTo) moves the chain forward, and the
// chain's value when a request finishes is that request's completion time.
//
// Replay rewinds the chain to each request's submit time with BeginRequest().
// At queue depth 1 a request is submitted when the previous one completes, so
// the chain never moves back and each operation's service time simply
// accumulates — the classic depth-1 model. At queue depth N requests overlap;
// contention between them is then carried by the per-plane/per-channel
// resources of the FlashPipeline event engine, not by the chain itself.
// Submit times are nondecreasing by construction (BeginRequest clamps to the
// issue floor), so no component ever observes a request *starting* earlier
// than a previous request started.

#ifndef FLASHTIER_FLASH_TIMING_H_
#define FLASHTIER_FLASH_TIMING_H_

#include <cstdint>

namespace flashtier {

// Table 2: Intel 300-series-derived NAND latencies, microseconds. Every
// device runs these; the emulated medium has no other timing.
struct FlashTimings {
  static constexpr uint64_t kPageReadUs = 65;
  static constexpr uint64_t kPageWriteUs = 85;
  static constexpr uint64_t kBlockEraseUs = 1000;
  static constexpr uint64_t kBusControlUs = 2;  // per-transfer bus control delay
  static constexpr uint64_t kControlUs = 10;    // per-command controller delay
  // Latency of the atomic-write primitive (Ouyang et al. [33]) used for
  // synchronous sub-page log commits. Calibrated so FlashTier's consistency
  // overhead lands in the paper's measured <26 us added response time.
  static constexpr uint64_t kAtomicWriteUs = 25;

  // Host-visible page read: command + media read + bus transfer out.
  static constexpr uint64_t ReadCostUs() { return kControlUs + kPageReadUs + kBusControlUs; }
  // Host-visible page program: command + bus transfer in + media program.
  static constexpr uint64_t WriteCostUs() { return kControlUs + kBusControlUs + kPageWriteUs; }
  static constexpr uint64_t EraseCostUs() { return kControlUs + kBlockEraseUs; }
  // Internal GC copy (copy-back): media read + program, one command, no host
  // bus transfer.
  static constexpr uint64_t CopyCostUs() { return kControlUs + kPageReadUs + kPageWriteUs; }
  // Reading only a page's out-of-band area (used by the native system's
  // recovery scan): command + a short transfer; media access is still a full
  // page-register load so we charge the page read.
  static constexpr uint64_t OobReadCostUs() { return kControlUs + kPageReadUs; }
};

// Monotonic-submit virtual time in microseconds, shared by all devices in one
// simulated system (one instance per shard).
class SimClock {
 public:
  // Completion frontier of the dependency chain currently being extended.
  uint64_t now_us() const { return now_us_; }

  // Serialized charge: the chain (and whoever depends on it) waits `us`.
  void Advance(uint64_t us) { now_us_ += us; }

  // Pipelined completion: an event engine computed that the chain's newest
  // dependency finishes at `us` (which already folds in resource waits).
  void SyncTo(uint64_t us) {
    if (us > now_us_) {
      now_us_ = us;
    }
  }

  // Open-loop request bracketing: rewind the chain to a new request's submit
  // time, which may be earlier than the previous request's completion (that
  // overlap is the point of queue-depth-N replay). Submit times are clamped
  // to the issue floor so they never decrease across requests; returns the
  // effective submit time.
  uint64_t BeginRequest(uint64_t submit_us) {
    if (submit_us > issue_floor_) {
      issue_floor_ = submit_us;
    }
    now_us_ = issue_floor_;
    return now_us_;
  }

  void Reset() {
    now_us_ = 0;
    issue_floor_ = 0;
  }

 private:
  uint64_t now_us_ = 0;
  uint64_t issue_floor_ = 0;  // largest submit time handed out so far
};

}  // namespace flashtier

#endif  // FLASHTIER_FLASH_TIMING_H_
