// Trace records and sources.
//
// All four paper workloads (Table 3) are sector-aligned 4,096-byte requests,
// so a block record is just an LBN plus a read/write flag. The KV records of
// src/trace/kv_trace.h are the other kind. Either kind is consumed through
// one RecordSource interface, so both replay engines work identically over
// synthetic generators, in-memory vectors, and binary trace files.

#ifndef FLASHTIER_TRACE_TRACE_H_
#define FLASHTIER_TRACE_TRACE_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/flash/types.h"

namespace flashtier {

enum class TraceOp : uint8_t { kRead = 0, kWrite = 1 };

struct TraceRecord {
  Lbn lbn = 0;
  TraceOp op = TraceOp::kRead;

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

// Pull-based stream of one record kind. Implementations must be
// deterministic: two iterations of a freshly-constructed source yield
// identical streams.
template <typename Record>
class RecordSource {
 public:
  virtual ~RecordSource() = default;

  // Fetches the next record; returns false at end of stream.
  virtual bool Next(Record* record) = 0;

  // Restarts the stream from the beginning.
  virtual void Rewind() = 0;

  // Total records the stream will produce, if known (0 = unknown).
  virtual uint64_t size_hint() const { return 0; }

  // The whole trace, if the source holds it in memory (empty otherwise): a
  // sharded replay routes it in place instead of reading a copy.
  virtual std::span<const Record> InMemory() const { return {}; }
};

// Trivial in-memory trace, mainly for tests.
template <typename Record>
class RecordVector final : public RecordSource<Record> {
 public:
  RecordVector() = default;
  explicit RecordVector(std::vector<Record> records) : records_(std::move(records)) {}

  // Appends the record whose leading fields are `fields`.
  template <typename... Fields>
  void Append(Fields... fields) { records_.emplace_back(fields...); }

  bool Next(Record* record) override {
    if (pos_ >= records_.size()) {
      return false;
    }
    *record = records_[pos_++];
    return true;
  }

  void Rewind() override { pos_ = 0; }
  uint64_t size_hint() const override { return records_.size(); }
  std::span<const Record> InMemory() const override { return records_; }

  const std::vector<Record>& records() const { return records_; }

 private:
  std::vector<Record> records_;
  size_t pos_ = 0;
};

using TraceSource = RecordSource<TraceRecord>;
using VectorTrace = RecordVector<TraceRecord>;

}  // namespace flashtier

#endif  // FLASHTIER_TRACE_TRACE_H_
