// KV trace replay engine: drives a KvCache with a KvTraceSource, mirroring
// the block ReplayEngine's determinism contract (src/core/replay.h).
//
// Records route to shards by key hash (a pure function of the key), each
// shard's subsequence replays as one sequential computation on whichever
// worker thread claims it (both steps in src/core/shard_scheduler.h, shared
// with the block engine), and metrics merge in shard-index order — so every
// virtual-time metric, including the full KvStats block, is bit-identical
// for any thread count and any queue depth assignment. replay_parallel
// asserts exactly that. Queue depth N > 1 uses the same OpenLoopQueue
// bracketing as block replay, so KV percentiles include queueing delay.

#ifndef FLASHTIER_KV_KV_REPLAY_H_
#define FLASHTIER_KV_KV_REPLAY_H_

#include <cstdint>

#include "src/kv/kv_cache.h"
#include "src/trace/kv_trace.h"
#include "src/util/stats.h"

namespace flashtier {

struct KvReplayMetrics {
  uint64_t requests = 0;
  uint64_t failed_requests = 0;  // kBackpressure / kNoSpace / kIoError
                                 // (misses are not failures)
  uint64_t elapsed_us = 0;       // max-epoch across shard clocks
  LatencyHistogram response_us;

  // The cache's own view after the run (aggregated in shard order).
  KvStats kv;
  PolicyStats policy;
  PersistStats persist;
  FlashStats flash;
  double flash_writes_per_set = 0.0;

  // Host-side wall clock — the only thread-dependent output.
  uint64_t wall_clock_us = 0;
  uint32_t threads = 1;
  uint32_t shards = 1;
  uint32_t queue_depth = 1;

  double Iops() const {
    return elapsed_us == 0
               ? 0.0
               : static_cast<double>(requests) * 1e6 / static_cast<double>(elapsed_us);
  }
  double MeanResponseUs() const { return response_us.mean(); }
  double ReplayOpsPerSec() const {
    return wall_clock_us == 0
               ? 0.0
               : static_cast<double>(requests) * 1e6 / static_cast<double>(wall_clock_us);
  }
};

class KvReplayEngine {
 public:
  struct Options {
    uint32_t threads = 1;      // workers; clamped to the shard count
    uint32_t queue_depth = 1;  // host requests in flight per shard
    bool dirty_sets = false;   // replay Sets as write-back (dirty) objects
  };

  KvReplayEngine(KvCache* cache, const Options& options) : cache_(cache), options_(options) {}
  explicit KvReplayEngine(KvCache* cache) : KvReplayEngine(cache, Options{}) {}

  // Replays the source to completion, then seals every open slab (outside
  // the measured phase) so flash-write counts compare packed and naive
  // placement honestly; returns metrics for the whole run. Set tokens derive
  // deterministically from (key, global sequence).
  KvReplayMetrics Run(KvTraceSource& source);

 private:
  KvCache* cache_;
  Options options_;
};

}  // namespace flashtier

#endif  // FLASHTIER_KV_KV_REPLAY_H_
