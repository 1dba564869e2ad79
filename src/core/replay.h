// Trace replay engine and end-to-end metrics.
//
// At queue depth 1 replay is closed-loop over virtual time: each request is
// issued when the previous one completes, and its response time is the
// virtual time the system components charged while serving it. IOPS =
// requests / elapsed virtual seconds, the paper's performance metric
// (Figures 3, 4, 6).
//
// At queue depth N > 1 (Options::queue_depth) replay is open-loop: up to N
// host requests are in flight per shard, each new request submitting the
// moment a queue slot frees (see src/core/open_loop.h). Submit-to-complete
// latency feeds the response histogram — so p95/p99/p999 include queueing
// delay — and the measured phase's elapsed time is the span from the first
// measured submit to the last measured completion.
//
// On a sharded system the engine routes each request to its LBN's shard and
// replays the per-shard subsequences on worker threads (Options::threads),
// both steps in src/core/shard_scheduler.h; a single-shard system streams
// its source instead of routing it. Every shard is a complete, isolated
// vertical slice with its own virtual clock, so a shard's replay is a
// deterministic sequential computation no matter which thread runs it;
// per-LBN order is preserved because routing is a pure function of the LBN.
// Virtual-time metrics are merged in shard order — counter sums, bucket-wise
// histogram sums, and a max-epoch merge of the per-shard clocks (channels
// run in parallel, so elapsed virtual time is the slowest shard's epoch) —
// making the merged metrics bit-identical for any thread count. Wall-clock
// throughput (wall_clock_us, ReplayOpsPerSec) is the only thread-dependent
// output, and a failing shard's exception is rethrown the same way at any
// thread count.
//
// The engine optionally verifies correctness as it replays: it tracks the
// newest token written to each block and checks that every read returns it —
// a stale read anywhere in the cache hierarchy fails the run.

#ifndef FLASHTIER_CORE_REPLAY_H_
#define FLASHTIER_CORE_REPLAY_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "src/core/flashtier.h"
#include "src/trace/trace.h"
#include "src/util/stats.h"

namespace flashtier {

struct ReplayMetrics {
  uint64_t requests = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t elapsed_us = 0;       // virtual time spent in the measured phase
                                 // (sharded: max-epoch across shard clocks)
  uint64_t warmup_requests = 0;  // replayed before measurement began
  uint64_t stale_reads = 0;      // correctness violations (must be 0)
  uint64_t failed_requests = 0;  // manager returned an error
  // Reads that failed with a medium error (kIoError after fault injection
  // destroyed a dirty block). Distinct from stale_reads: an error is honest —
  // the system admits the loss — while a stale read silently lies.
  uint64_t read_errors = 0;
  LatencyHistogram response_us;

  // Host-side wall clock for the whole replay (warmup included) and the
  // shape that produced it. Unlike every field above, wall_clock_us is real
  // time: it varies run to run and across thread counts — it is the number
  // the parallel engine exists to shrink.
  uint64_t wall_clock_us = 0;
  uint32_t threads = 1;
  uint32_t shards = 1;
  uint32_t queue_depth = 1;  // host requests in flight per shard

  double Iops() const {
    return elapsed_us == 0 ? 0.0
                           : static_cast<double>(requests) * 1e6 /
                                 static_cast<double>(elapsed_us);
  }
  double MeanResponseUs() const { return response_us.mean(); }
  // Replayed requests (measured + warmup) per wall-clock second.
  double ReplayOpsPerSec() const {
    return wall_clock_us == 0 ? 0.0
                              : static_cast<double>(requests + warmup_requests) * 1e6 /
                                    static_cast<double>(wall_clock_us);
  }
};

class ReplayEngine {
 public:
  // The oracle's view of a long-lived system, exportable between engine runs
  // so multi-pass benches (the aging sweep replays one trace for a device
  // lifetime) can keep verifying: a fresh oracle would flag every read of
  // data the *previous* pass legitimately wrote into the cache as stale.
  struct VerificationState {
    std::unordered_map<Lbn, uint64_t> oracle;
    std::unordered_set<Lbn> lost_blocks;
  };

  struct Options {
    double warmup_fraction = 0.0;  // fraction of the trace replayed unmeasured
    bool verify = false;           // oracle-check every read
    // Seed the oracle from a previous pass over the same system (multi-pass
    // replay). Must outlive Run(). nullptr starts from an empty oracle.
    const VerificationState* resume_verification = nullptr;
    uint64_t max_requests = 0;     // 0 = whole trace
    // Worker threads for sharded systems; clamped to the shard count. The
    // virtual-time metrics do not depend on this value.
    uint32_t threads = 1;
    // Host requests in flight per shard. 1 = the classic closed loop,
    // bit-identical to the engine before open-loop replay existed; N > 1
    // overlaps requests on the device's plane/channel pipeline.
    uint32_t queue_depth = 1;
  };

  ReplayEngine(FlashTierSystem* system, const Options& options)
      : system_(system), options_(options) {}
  explicit ReplayEngine(FlashTierSystem* system) : ReplayEngine(system, Options{}) {}

  // Replays the source to completion; returns metrics for the measured phase.
  // The token for a write is derived deterministically from (lbn, sequence).
  ReplayMetrics Run(TraceSource& source);

  const ReplayMetrics& metrics() const { return metrics_; }

  // Snapshot of the oracle after Run(), for seeding the next pass's engine
  // via Options::resume_verification (sharded runs are merged — per-LBN
  // routing keeps the shards' maps disjoint).
  VerificationState ExportVerificationState() const { return {oracle_, lost_blocks_}; }

 private:
  FlashTierSystem* system_;
  Options options_;
  ReplayMetrics metrics_;
  std::unordered_map<Lbn, uint64_t> oracle_;  // newest token per block
  // Blocks whose newest data was lost to a medium error: the oracle cannot
  // predict what the disk holds for them, so stale-checking is suspended
  // until the next successful write re-establishes a known token.
  std::unordered_set<Lbn> lost_blocks_;
};

}  // namespace flashtier

#endif  // FLASHTIER_CORE_REPLAY_H_
