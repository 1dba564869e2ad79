// The shard schedule both replay engines share (ReplayEngine, KvReplayEngine).
//
// A replay has two steps that do not depend on what is replayed. First the
// trace is routed to shards: routing is a pure function of the record (its
// LBN or key), so per-LBN and per-key order is preserved, and every request
// keeps its global trace sequence number, so write tokens and the warmup cut
// do not depend on the partitioning. Then each shard's requests are replayed
// whole by one worker. Shards share no mutable state, so a shard's replay is
// the same sequential computation on any worker, and the thread count changes
// nothing but wall-clock time.
//
// Neither step leaves the workers waiting on one thread. They route the
// trace in parallel, each over its own contiguous chunk, into one array of
// 4-byte trace positions, and then claim shards largest first, so the
// longest shard starts at once and the shorter ones fill the other workers.

#ifndef FLASHTIER_CORE_SHARD_SCHEDULER_H_
#define FLASHTIER_CORE_SHARD_SCHEDULER_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/trace/trace.h"

namespace flashtier {

// The workers a sharded replay runs on: `threads` clamped to [1, shards].
inline uint32_t WorkerCount(uint32_t shards, uint32_t threads) {
  return std::min(std::max(1u, threads), std::max(1u, shards));
}

// Calls work(w) once for each worker w in [0, workers), each on its own
// thread; a single worker is the calling thread. An exception escaping a
// std::thread body is std::terminate, so each worker's error is parked in its
// own slot and the lowest worker's is rethrown after every worker has joined.
template <typename Work>
void RunOnWorkers(uint32_t workers, const Work& work) {
  std::vector<std::exception_ptr> errors(workers);
  const auto guarded = [&](uint32_t w) {
    try {
      work(w);
    } catch (...) {
      errors[w] = std::current_exception();
    }
  };
  if (workers == 1) {
    guarded(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (uint32_t w = 0; w < workers; ++w) {
      pool.emplace_back(guarded, w);
    }
    for (std::thread& t : pool) {
      t.join();
    }
  }
  for (const std::exception_ptr& error : errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
}

// One trace's requests, split by shard. A shard's requests are the trace
// positions routed to it, in increasing order, and a request's position is
// its global sequence number. With several shards the trace is routed in
// place when the source holds it in memory (InMemory()), and is read once into
// an owned copy otherwise. With one shard nothing is read ahead: shard 0
// streams straight from the source, so a single-shard replay's memory does
// not grow with the trace. Either way ForEach hands out each record with its
// sequence number, once per shard; the source must outlive this.
template <typename Record>
class ShardQueues {
 public:
  // Routes every record of `source` to shard `shard_of(record)` on
  // WorkerCount(shards, threads) workers. Each worker counts its chunk of
  // the trace per shard; the counts are prefix-summed in (shard, chunk) order,
  // and each worker writes its chunk's positions where the sums say. The
  // position array is not zero-filled, so the workers touch its pages first.
  template <typename ShardOf>
  ShardQueues(RecordSource<Record>& source, uint32_t shards, uint32_t threads,
              const ShardOf& shard_of)
      : source_(&source), begin_(shards + 1, 0) {
    if (shards <= 1) {
      return;
    }
    trace_ = source.InMemory();
    if (trace_.empty()) {
      owned_.reserve(source.size_hint());
      ReadSource([this](const Record& record, uint64_t) { owned_.push_back(record); });
      trace_ = owned_;
    }
    const uint64_t n = trace_.size();
    if (n > std::numeric_limits<uint32_t>::max()) {
      throw std::length_error("trace of " + std::to_string(n) +
                              " records does not fit 32-bit shard queue positions");
    }
    const uint32_t workers = WorkerCount(shards, threads);
    const auto chunk_begin = [&](uint32_t c) { return n * c / workers; };
    // at[c * shards + s]: chunk c's request count for shard s, then where
    // chunk c's first request for shard s goes.
    std::vector<uint64_t> at(static_cast<size_t>(workers) * shards);
    RunOnWorkers(workers, [&](uint32_t c) {
      std::vector<uint64_t> count(shards, 0);
      for (uint64_t seq = chunk_begin(c); seq < chunk_begin(c + 1); ++seq) {
        ++count[shard_of(trace_[seq])];
      }
      std::copy(count.begin(), count.end(), at.begin() + static_cast<size_t>(c) * shards);
    });
    uint64_t next = 0;
    for (uint32_t s = 0; s < shards; ++s) {
      begin_[s] = next;
      for (uint32_t c = 0; c < workers; ++c) {
        next += std::exchange(at[static_cast<size_t>(c) * shards + s], next);
      }
    }
    begin_[shards] = next;
    positions_ = std::make_unique_for_overwrite<uint32_t[]>(n);
    RunOnWorkers(workers, [&](uint32_t c) {
      const auto row = at.begin() + static_cast<size_t>(c) * shards;
      std::vector<uint64_t> cursor(row, row + shards);
      for (uint64_t seq = chunk_begin(c); seq < chunk_begin(c + 1); ++seq) {
        positions_[cursor[shard_of(trace_[seq])]++] = static_cast<uint32_t>(seq);
      }
    });
  }

  // Requests routed to each shard; a streamed single shard reports 0.
  std::vector<uint64_t> Sizes() const {
    std::vector<uint64_t> sizes(begin_.size() - 1);
    for (size_t s = 0; s < sizes.size(); ++s) {
      sizes[s] = begin_[s + 1] - begin_[s];
    }
    return sizes;
  }

  // Calls fn(record, seq) for each of shard `shard`'s requests in trace order.
  template <typename Fn>
  void ForEach(uint32_t shard, const Fn& fn) const {
    if (positions_ == nullptr) {
      ReadSource(fn);
      return;
    }
    for (uint64_t k = begin_[shard]; k < begin_[shard + 1]; ++k) {
      const uint64_t seq = positions_[k];
      fn(trace_[seq], seq);
    }
  }

 private:
  template <typename Fn>
  void ReadSource(const Fn& fn) const {
    Record record;
    for (uint64_t seq = 0; source_->Next(&record); ++seq) {
      fn(record, seq);
    }
  }

  RecordSource<Record>* source_;  // not owned
  std::vector<Record> owned_;              // a streamed trace, read once
  std::span<const Record> trace_;          // the routed records
  std::vector<uint64_t> begin_;            // shard s: positions_[begin_[s], begin_[s + 1])
  std::unique_ptr<uint32_t[]> positions_;  // null with one shard
};

// Calls replay_shard(i) once for every shard i, where sizes[i] is shard i's
// request count, on WorkerCount(shards, threads) workers. Workers claim shards
// from one atomic cursor, largest first with ties to the lower index, so the
// longest shard starts at once and each worker that frees up takes the next.
// Every shard runs even when another fails. An exception escaping a
// std::thread body is std::terminate, so each shard's error is parked in that
// shard's own slot, written only by the worker that claimed it and read after
// join, and the lowest-index failing shard's error is rethrown as "replay
// worker failed: <what>". That is the same error at every thread count and in
// every claim order.
inline void ForEachShardOnWorkers(const std::vector<uint64_t>& sizes, uint32_t threads,
                                  const std::function<void(uint32_t)>& replay_shard) {
  const auto shards = static_cast<uint32_t>(sizes.size());
  std::vector<uint32_t> order(shards);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](uint32_t a, uint32_t b) { return sizes[a] > sizes[b]; });
  std::vector<std::exception_ptr> errors(shards);
  std::atomic<uint32_t> cursor{0};
  RunOnWorkers(WorkerCount(shards, threads), [&](uint32_t) {
    for (uint32_t k = cursor++; k < shards; k = cursor++) {
      try {
        replay_shard(order[k]);
      } catch (...) {
        errors[order[k]] = std::current_exception();
      }
    }
  });
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
