// Tiny-object key-value trace records (DESIGN.md §5k).
//
// Where the block traces model a disk address space, KV traces model an
// object namespace: a record is a 64-bit key, an operation (get/set/delete)
// and — for sets — the object's size in bytes (64 B..4 KB). They flow through
// the same RecordSource interface as block records (src/trace/trace.h).

#ifndef FLASHTIER_TRACE_KV_TRACE_H_
#define FLASHTIER_TRACE_KV_TRACE_H_

#include <cstdint>

#include "src/trace/trace.h"

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

using KvTraceSource = RecordSource<KvTraceRecord>;
using KvVectorTrace = RecordVector<KvTraceRecord>;

}  // namespace flashtier

#endif  // FLASHTIER_TRACE_KV_TRACE_H_
