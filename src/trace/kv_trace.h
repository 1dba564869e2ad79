// Tiny-object key-value trace records and sources (DESIGN.md §5k).
//
// Where the block traces model a disk address space, KV traces model an
// object namespace: a record is a 64-bit key, an operation (get/set/delete)
// and — for sets — the object's size in bytes (64 B..4 KB). The KvCache
// replays them through the same style of pull interface the block replay
// engine uses.

#ifndef FLASHTIER_TRACE_KV_TRACE_H_
#define FLASHTIER_TRACE_KV_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace flashtier {

enum class KvOp : uint8_t { kGet = 0, kSet = 1, kDelete = 2 };

// Object-size bounds the KV layer supports: a slot header plus at least one
// byte up to a whole slab payload.
inline constexpr uint32_t kKvMinObjectBytes = 64;
inline constexpr uint32_t kKvMaxObjectBytes = 4096;

struct KvTraceRecord {
  uint64_t key = 0;
  KvOp op = KvOp::kGet;
  uint32_t size = 0;  // object bytes; meaningful for kSet, zero otherwise

  friend bool operator==(const KvTraceRecord&, const KvTraceRecord&) = default;
};

// Pull-based KV trace stream; deterministic like TraceSource.
class KvTraceSource {
 public:
  virtual ~KvTraceSource() = default;

  virtual bool Next(KvTraceRecord* record) = 0;
  virtual void Rewind() = 0;
  virtual uint64_t size_hint() const { return 0; }
  // The whole trace if held in memory, else empty (TraceSource::InMemory).
  virtual std::span<const KvTraceRecord> InMemory() const { return {}; }
};

// Trivial in-memory KV trace, mainly for tests.
class KvVectorTrace final : public KvTraceSource {
 public:
  KvVectorTrace() = default;
  explicit KvVectorTrace(std::vector<KvTraceRecord> records) : records_(std::move(records)) {}

  void Append(uint64_t key, KvOp op, uint32_t size = 0) { records_.push_back({key, op, size}); }

  bool Next(KvTraceRecord* record) override {
    if (pos_ >= records_.size()) {
      return false;
    }
    *record = records_[pos_++];
    return true;
  }

  void Rewind() override { pos_ = 0; }
  uint64_t size_hint() const override { return records_.size(); }
  std::span<const KvTraceRecord> InMemory() const override { return records_; }

  const std::vector<KvTraceRecord>& records() const { return records_; }

 private:
  std::vector<KvTraceRecord> records_;
  size_t pos_ = 0;
};

}  // namespace flashtier

#endif  // FLASHTIER_TRACE_KV_TRACE_H_
