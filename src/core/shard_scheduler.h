// The shard schedule both replay engines share (ReplayEngine, KvReplayEngine).
//
// A replay has two steps that do not depend on what is replayed. First the
// trace is routed into per-shard queues: routing is a pure function of the
// record (its LBN or key), so per-LBN and per-key order is preserved, and
// every request keeps its global trace sequence number, so write tokens and
// the warmup cut do not depend on the partitioning. Then shard i's queue is
// replayed whole by worker i % threads. Shards share no mutable state, so a
// shard's replay is the same sequential computation on any worker, and the
// thread count changes nothing but wall-clock time.

#ifndef FLASHTIER_CORE_SHARD_SCHEDULER_H_
#define FLASHTIER_CORE_SHARD_SCHEDULER_H_

#include <algorithm>
#include <cstdint>
#include <exception>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace flashtier {

// One trace's requests, split by shard. With one shard nothing is copied:
// shard 0 streams straight from the source, so a single-shard replay's memory
// does not grow with the trace. Either way ForEach hands out each record with
// its global sequence number, once per shard; the source must outlive this.
template <typename Source, typename Record>
class ShardQueues {
 public:
  // Routes the first `limit` records of `source` to the queue of shard
  // `shard_of(record)`.
  template <typename ShardOf>
  ShardQueues(Source& source, uint32_t shards, uint64_t limit, const ShardOf& shard_of)
      : source_(&source), limit_(limit) {
    if (shards > 1) {
      queues_.resize(shards);
      ReadSource([&](const Record& record, uint64_t seq) {
        queues_[shard_of(record)].push_back({record, seq});
      });
    }
  }

  // Calls fn(record, seq) for each of shard `shard`'s requests in trace order.
  template <typename Fn>
  void ForEach(uint32_t shard, const Fn& fn) {
    if (queues_.empty()) {
      ReadSource(fn);
      return;
    }
    for (const Request& request : queues_[shard]) {
      fn(request.record, request.seq);
    }
  }

 private:
  struct Request {
    Record record;
    uint64_t seq = 0;
  };

  template <typename Fn>
  void ReadSource(const Fn& fn) {
    Record record;
    for (uint64_t seq = 0; seq < limit_ && source_->Next(&record); ++seq) {
      fn(record, seq);
    }
  }

  Source* source_;  // not owned
  uint64_t limit_;
  std::vector<std::vector<Request>> queues_;  // empty with one shard
};

// Calls replay_shard(i) for every shard i, shard i on worker i % threads
// (threads clamped to [1, shards]; a single worker is the calling thread). A
// worker stops at its first failing shard. An exception escaping a
// std::thread body is std::terminate, so each shard's error is parked in that
// shard's own slot, written only by its worker and read after join, and the
// lowest-index failing shard's error is rethrown as "replay worker failed:
// <what>". That is the error a one-thread run meets first, so the report does
// not depend on the thread count.
inline void ForEachShardOnWorkers(uint32_t shards, uint32_t threads,
                                  const std::function<void(uint32_t)>& replay_shard) {
  threads = std::min(std::max(1u, threads), std::max(1u, shards));
  std::vector<std::exception_ptr> errors(shards);
  const auto work = [&](uint32_t worker) {
    uint32_t i = worker;
    try {
      for (; i < shards; i += threads) {
        replay_shard(i);
      }
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };
  if (threads == 1) {
    work(0);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (uint32_t w = 0; w < threads; ++w) {
      workers.emplace_back(work, w);
    }
    for (std::thread& t : workers) {
      t.join();
    }
  }
  for (const std::exception_ptr& error : errors) {
    if (error) {
      try {
        std::rethrow_exception(error);
      } catch (const std::exception& e) {
        throw std::runtime_error(std::string("replay worker failed: ") + e.what());
      } catch (...) {
        throw std::runtime_error("replay worker failed: unknown exception");
      }
    }
  }
}

}  // namespace flashtier

#endif  // FLASHTIER_CORE_SHARD_SCHEDULER_H_
