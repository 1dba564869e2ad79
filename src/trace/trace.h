// Block-level I/O trace records and sources.
//
// All four paper workloads (Table 3) are sector-aligned 4,096-byte requests,
// so a record is just an LBN plus a read/write flag. Traces are consumed
// through the TraceSource interface so the replay engine works identically
// over synthetic generators, in-memory vectors, and binary trace files.

#ifndef FLASHTIER_TRACE_TRACE_H_
#define FLASHTIER_TRACE_TRACE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/flash/types.h"

namespace flashtier {

enum class TraceOp : uint8_t { kRead = 0, kWrite = 1 };

struct TraceRecord {
  Lbn lbn = 0;
  TraceOp op = TraceOp::kRead;

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

// Pull-based trace stream. Implementations must be deterministic: two
// iterations of a freshly-constructed source yield identical streams.
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  // Fetches the next record; returns false at end of stream.
  virtual bool Next(TraceRecord* record) = 0;

  // Restarts the stream from the beginning.
  virtual void Rewind() = 0;

  // Total records the stream will produce, if known (0 = unknown).
  virtual uint64_t size_hint() const { return 0; }

  // The whole trace, if the source holds it in memory (empty otherwise): a
  // sharded replay routes it in place instead of reading a copy.
  virtual std::span<const TraceRecord> InMemory() const { return {}; }
};

// Trivial in-memory trace, mainly for tests.
class VectorTrace final : public TraceSource {
 public:
  VectorTrace() = default;
  explicit VectorTrace(std::vector<TraceRecord> records) : records_(std::move(records)) {}

  void Append(Lbn lbn, TraceOp op) { records_.push_back({lbn, op}); }

  bool Next(TraceRecord* record) override {
    if (pos_ >= records_.size()) {
      return false;
    }
    *record = records_[pos_++];
    return true;
  }

  void Rewind() override { pos_ = 0; }
  uint64_t size_hint() const override { return records_.size(); }
  std::span<const TraceRecord> InMemory() const override { return records_; }

  const std::vector<TraceRecord>& records() const { return records_; }

 private:
  std::vector<TraceRecord> records_;
  size_t pos_ = 0;
};

}  // namespace flashtier

#endif  // FLASHTIER_TRACE_TRACE_H_
