#include "src/core/replay.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "src/core/open_loop.h"
#include "src/core/shard_scheduler.h"

namespace flashtier {

namespace {

uint64_t LookupExpectedToken(const std::unordered_map<Lbn, uint64_t>& oracle, Lbn lbn) {
  const auto it = oracle.find(lbn);
  return it != oracle.end() ? it->second : DiskModel::OriginalToken(lbn);
}

// While verifying under fault injection, a dirty page can be destroyed
// *inside* the cache — wear faults striking during GC copies or write-back
// cleaning — without any host request observing an error: the manager
// records the loss and later reads legitimately fall back to the older disk
// copy. Feed the SSC's data-loss hook into the shard's lost set so those
// reads are exempt from stale-checking, exactly like host-visible read
// errors; the next successful write re-arms the oracle. The hook fires
// synchronously inside the manager call, on this shard's replay thread.
class ScopedLossHook {
 public:
  ScopedLossHook(SscDevice* ssc, std::unordered_map<Lbn, uint64_t>* oracle,
                 std::unordered_set<Lbn>* lost)
      : ssc_(ssc) {
    if (ssc_ != nullptr) {
      ssc_->set_data_loss_hook([oracle, lost](Lbn lbn) {
        oracle->erase(lbn);
        lost->insert(lbn);
      });
    }
  }
  ~ScopedLossHook() {
    if (ssc_ != nullptr) {
      ssc_->set_data_loss_hook(nullptr);
    }
  }
  ScopedLossHook(const ScopedLossHook&) = delete;
  ScopedLossHook& operator=(const ScopedLossHook&) = delete;

 private:
  SscDevice* ssc_;
};

// Per-shard replay state and partial metrics; merged in shard order.
struct ShardRun {
  ReplayMetrics metrics;
  std::unordered_map<Lbn, uint64_t> oracle;
  std::unordered_set<Lbn> lost_blocks;
};

using BlockQueues = ShardQueues<TraceSource, TraceRecord>;

// Replays shard `i`'s requests on that shard's slice and accounts them in
// `run`. Touches nothing else, so it is the same computation on any worker
// thread. At queue depth 1 a request's response time is the virtual time
// charged while serving it and the measured phase lasts their sum; deeper
// queues measure submit to completion and the phase lasts their span.
void ReplayShard(const ReplayEngine::Options& options, FlashTierSystem::Shard& shard,
                 const BlockQueues& queues, uint32_t i, uint64_t warmup, ShardRun* run) {
  const bool open_loop = options.queue_depth > 1;
  OpenLoopQueue loop(&shard.clock, options.queue_depth);
  OpenLoopSpan span;
  ScopedLossHook loss_hook(options.verify ? shard.ssc.get() : nullptr, &run->oracle,
                           &run->lost_blocks);
  ReplayMetrics& m = run->metrics;
  queues.ForEach(i, [&](const TraceRecord& record, uint64_t seq) {
    const bool measured = seq >= warmup;
    const uint64_t start_us = open_loop ? loop.Begin() : shard.clock.now_us();
    if (record.op == TraceOp::kWrite) {
      const uint64_t token = (record.lbn << 20) ^ seq;
      if (!IsOk(shard.manager->Write(record.lbn, token))) {
        ++m.failed_requests;
      } else if (options.verify) {
        run->oracle[record.lbn] = token;
        run->lost_blocks.erase(record.lbn);
      }
      if (measured) {
        ++m.writes;
      }
    } else {
      uint64_t token = 0;
      if (!IsOk(shard.manager->Read(record.lbn, &token))) {
        // A medium error (lost dirty block) is reported, not hidden; count it
        // apart from ordinary failures and stop oracle-checking the block —
        // the disk copy it falls back to is some older version by definition.
        ++m.failed_requests;
        ++m.read_errors;
        if (options.verify) {
          run->oracle.erase(record.lbn);
          run->lost_blocks.insert(record.lbn);
        }
      } else if (options.verify && run->lost_blocks.count(record.lbn) == 0 &&
                 token != LookupExpectedToken(run->oracle, record.lbn)) {
        ++m.stale_reads;
      }
      if (measured) {
        ++m.reads;
      }
    }
    const uint64_t latency_us = open_loop ? loop.End(start_us) : shard.clock.now_us() - start_us;
    if (!measured) {
      ++m.warmup_requests;
      return;
    }
    ++m.requests;
    m.response_us.Add(latency_us);
    if (open_loop) {
      span.Add(start_us, latency_us);
    } else {
      m.elapsed_us += latency_us;
    }
  });
  if (open_loop) {
    loop.Drain();
    m.elapsed_us = span.ElapsedUs();
  }
}

// The requests a run replays: the trace, cut at max_requests if that is
// shorter. The warmup cut is a fraction of this.
uint64_t TotalRequests(const ReplayEngine::Options& options, const TraceSource& source) {
  const uint64_t trace = source.size_hint() != 0 ? source.size_hint() : ~uint64_t{0};
  return options.max_requests != 0 ? std::min(options.max_requests, trace) : trace;
}

}  // namespace

ReplayMetrics ReplayEngine::Run(TraceSource& source) {
  metrics_ = ReplayMetrics{};
  if (options_.verify && options_.resume_verification != nullptr) {
    oracle_ = options_.resume_verification->oracle;
    lost_blocks_ = options_.resume_verification->lost_blocks;
  }
  // wall_clock_us is the one deliberately real-time metric: it measures the
  // parallel engine itself, not the simulated system.
  // flashlint: allow(wall-clock): host-side throughput measurement
  const auto wall_start = std::chrono::steady_clock::now();
  const uint32_t shard_count = system_->shard_count();
  const uint64_t total = TotalRequests(options_, source);
  const auto warmup = static_cast<uint64_t>(static_cast<double>(total) * options_.warmup_fraction);

  const auto shard_of = [this](const TraceRecord& record) { return system_->ShardOf(record.lbn); };
  const BlockQueues queues(source, shard_count, options_.threads, total, shard_of);
  std::vector<ShardRun> runs(shard_count);
  if (options_.verify) {
    // Distribute a resumed oracle to the shards that own each LBN (routing
    // is a pure function of the LBN, so this reverses the final merge).
    for (const auto& [lbn, token] : oracle_) {
      runs[system_->ShardOf(lbn)].oracle.emplace(lbn, token);
    }
    for (const Lbn lbn : lost_blocks_) {
      runs[system_->ShardOf(lbn)].lost_blocks.insert(lbn);
    }
  }
  ForEachShardOnWorkers(queues.Sizes(), options_.threads, [&](uint32_t i) {
    ReplayShard(options_, system_->shard(i), queues, i, warmup, &runs[i]);
  });

  // Deterministic merge, in shard-index order: counters and histograms sum;
  // the per-shard virtual clocks merge by max-epoch — the channels ran in
  // parallel, so the measured phase lasts as long as its slowest shard.
  for (const ShardRun& run : runs) {
    const ReplayMetrics& m = run.metrics;
    metrics_.requests += m.requests;
    metrics_.reads += m.reads;
    metrics_.writes += m.writes;
    metrics_.warmup_requests += m.warmup_requests;
    metrics_.stale_reads += m.stale_reads;
    metrics_.failed_requests += m.failed_requests;
    metrics_.read_errors += m.read_errors;
    metrics_.elapsed_us = std::max(metrics_.elapsed_us, m.elapsed_us);
    metrics_.response_us.Merge(m.response_us);
  }
  if (options_.verify) {
    // Fold the per-shard oracles back together (disjoint by routing) so the
    // state can seed a later pass over the same long-lived system.
    oracle_.clear();
    lost_blocks_.clear();
    for (const ShardRun& run : runs) {
      oracle_.insert(run.oracle.begin(), run.oracle.end());
      lost_blocks_.insert(run.lost_blocks.begin(), run.lost_blocks.end());
    }
  }
  // flashlint: allow(wall-clock): host-side throughput measurement
  const auto wall_end = std::chrono::steady_clock::now();
  metrics_.wall_clock_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(wall_end - wall_start).count());
  metrics_.threads = WorkerCount(shard_count, options_.threads);
  metrics_.shards = shard_count;
  metrics_.queue_depth = std::max<uint32_t>(1, options_.queue_depth);
  source.Rewind();
  return metrics_;
}

}  // namespace flashtier
