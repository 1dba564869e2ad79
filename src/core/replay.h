// Block trace replay engine and end-to-end metrics.
//
// At queue depth 1 each request is issued when the previous one completes,
// so its response time is the virtual time the system components charged
// while serving it. IOPS = requests / elapsed virtual seconds, the paper's
// performance metric (Figures 3, 4, 6). At queue depth N > 1
// (Options::queue_depth) up to N host requests are in flight per shard, and
// the response histogram — so p95/p99/p999 — includes queueing delay.
//
// Routing, the per-shard request bracket, the shard-order merge and the
// host-side fields are the loop both engines share (src/core/shard_replay.h),
// which keeps every virtual-time metric bit-identical for any thread count.
// This engine adds the manager calls and, optionally, a correctness oracle:
// it tracks the newest token written to each block and checks that every
// read returns it — a stale read anywhere in the cache hierarchy fails the
// run.

#ifndef FLASHTIER_CORE_REPLAY_H_
#define FLASHTIER_CORE_REPLAY_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "src/core/flashtier.h"
#include "src/core/shard_replay.h"
#include "src/trace/trace.h"

namespace flashtier {

struct ReplayMetrics : RequestMetrics {
  uint64_t reads = 0;        // measured
  uint64_t writes = 0;       // measured
  uint64_t stale_reads = 0;  // correctness violations (must be 0)
  // Reads that failed with a medium error (kIoError after fault injection
  // destroyed a dirty block). Distinct from stale_reads: an error is honest —
  // the system admits the loss — while a stale read silently lies.
  uint64_t read_errors = 0;

  void Merge(const ReplayMetrics& shard) {
    RequestMetrics::Merge(shard);
    reads += shard.reads;
    writes += shard.writes;
    stale_reads += shard.stale_reads;
    read_errors += shard.read_errors;
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
    // Worker threads for sharded systems; clamped to the shard count. The
    // virtual-time metrics do not depend on this value.
    uint32_t threads = 1;
    // Host requests in flight per shard. 1 submits each request when the
    // previous one completes; N > 1 overlaps requests on the device's
    // plane/channel pipeline.
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
