// KV trace replay engine: drives a KvCache with a KvTraceSource through the
// loop the block ReplayEngine runs (src/core/shard_replay.h). Records route
// to shards by key hash (a pure function of the key) and metrics merge in
// shard-index order, so every virtual-time metric, including the full
// KvStats block, is bit-identical for any thread count; replay_parallel
// asserts exactly that. Queue depth N > 1 uses the loop's open-loop
// bracketing, so KV percentiles include queueing delay. The engine itself
// adds only the Get/Set/Delete step, the final flush and the stats read.

#ifndef FLASHTIER_KV_KV_REPLAY_H_
#define FLASHTIER_KV_KV_REPLAY_H_

#include <cstdint>

#include "src/core/shard_replay.h"
#include "src/kv/kv_cache.h"
#include "src/trace/kv_trace.h"

namespace flashtier {

// failed_requests counts kBackpressure / kNoSpace / kIoError (misses are
// not failures); KV replay has no warmup.
struct KvReplayMetrics : RequestMetrics {
  // The cache's own view after the run (aggregated in shard order).
  KvStats kv;
  PolicyStats policy;
  PersistStats persist;
  FlashStats flash;
  double flash_writes_per_set = 0.0;
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
