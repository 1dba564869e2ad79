#include "src/kv/kv_replay.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "src/core/open_loop.h"
#include "src/core/shard_scheduler.h"

namespace flashtier {

namespace {

// Value identity for the `seq`-th trace record's Set: a pure function of
// (key, seq), so tokens do not depend on sharding or thread count.
uint64_t SetToken(uint64_t key, uint64_t seq) {
  return MixHash64(key ^ (seq * 0x9e3779b97f4a7c15ull) ^ 0x6b76746f6bull);  // "kvtok"
}

bool IsFailure(Status st) {
  return !IsOk(st) && st != Status::kNotPresent;
}

struct ShardRun {
  uint64_t requests = 0;
  uint64_t failed_requests = 0;
  uint64_t elapsed_us = 0;
  LatencyHistogram response_us;
};

using KvQueues = ShardQueues<KvTraceSource, KvTraceRecord>;

// Replays shard `i`'s requests on that shard. Touches nothing but the shard
// and `run`, so it is the same computation on any worker thread.
void ReplayShard(const KvReplayEngine::Options& options, KvShard& shard, const KvQueues& queues,
                 uint32_t i, ShardRun* run) {
  const bool open_loop = options.queue_depth > 1;
  OpenLoopQueue loop(&shard.clock(), options.queue_depth);
  OpenLoopSpan span;
  const uint64_t epoch_start = shard.clock().now_us();
  queues.ForEach(i, [&](const KvTraceRecord& record, uint64_t seq) {
    const uint64_t start_us = open_loop ? loop.Begin() : shard.clock().now_us();
    Status st = Status::kOk;
    switch (record.op) {
      case KvOp::kGet: {
        uint64_t token = 0;
        st = shard.Get(record.key, &token);
        break;
      }
      case KvOp::kSet:
        st = shard.Set(record.key, SetToken(record.key, seq), record.size, options.dirty_sets);
        break;
      case KvOp::kDelete:
        st = shard.Delete(record.key);
        break;
    }
    if (IsFailure(st)) {
      ++run->failed_requests;
    }
    ++run->requests;
    const uint64_t latency_us = open_loop ? loop.End(start_us) : shard.clock().now_us() - start_us;
    run->response_us.Add(latency_us);
    if (open_loop) {
      span.Add(start_us, latency_us);
    }
  });
  if (open_loop) {
    loop.Drain();
    run->elapsed_us = span.ElapsedUs();
  } else {
    run->elapsed_us = shard.clock().now_us() - epoch_start;
  }
}

}  // namespace

KvReplayMetrics KvReplayEngine::Run(KvTraceSource& source) {
  KvReplayMetrics metrics;
  // flashlint: allow(wall-clock): host-side throughput measurement
  const auto wall_start = std::chrono::steady_clock::now();

  const uint32_t shard_count = cache_->shard_count();
  const auto shard_of = [this](const KvTraceRecord& record) { return cache_->ShardOf(record.key); };
  const KvQueues queues(source, shard_count, options_.threads, ~uint64_t{0}, shard_of);
  std::vector<ShardRun> runs(shard_count);
  ForEachShardOnWorkers(queues.Sizes(), options_.threads, [&](uint32_t i) {
    ReplayShard(options_, cache_->shard(i), queues, i, &runs[i]);
  });

  if (IsFailure(cache_->Flush())) {
    ++metrics.failed_requests;
  }

  // Deterministic merge in shard-index order; elapsed time is the slowest
  // shard's epoch (the channels ran in parallel).
  for (const ShardRun& run : runs) {
    metrics.requests += run.requests;
    metrics.failed_requests += run.failed_requests;
    metrics.elapsed_us = std::max(metrics.elapsed_us, run.elapsed_us);
    metrics.response_us.Merge(run.response_us);
  }
  metrics.kv = cache_->AggregateStats();
  metrics.policy = cache_->AggregatePolicyStats();
  metrics.persist = cache_->AggregatePersistStats();
  metrics.flash = cache_->AggregateFlashStats();
  metrics.flash_writes_per_set = cache_->FlashWritesPerSet();

  // flashlint: allow(wall-clock): host-side throughput measurement
  const auto wall_end = std::chrono::steady_clock::now();
  metrics.wall_clock_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(wall_end - wall_start).count());
  metrics.threads = WorkerCount(shard_count, options_.threads);
  metrics.shards = shard_count;
  metrics.queue_depth = std::max<uint32_t>(1, options_.queue_depth);
  source.Rewind();
  return metrics;
}

}  // namespace flashtier
