// Status codes shared across the FlashTier libraries.
//
// The SSC interface (Section 4.2 of the paper) is defined in terms of
// operations that may fail with "not present"; we model that and a small set
// of additional error conditions with a lightweight status enum rather than
// exceptions, since these codes appear on the hot path of every simulated
// request.

#ifndef FLASHTIER_UTIL_STATUS_H_
#define FLASHTIER_UTIL_STATUS_H_

#include <cassert>
#include <cstdint>
#include <string_view>

namespace flashtier {

// [[nodiscard]] on the enum makes every function returning Status a
// must-check call: an ignored return is a compile error (every build passes
// -Werror=unused-result), because a dropped kIoError/kBackpressure is exactly
// the kind of silent inconsistency the durability guarantees forbid.
// Genuinely intentional discards must spell out `(void)` plus a constraint
// comment.
enum class [[nodiscard]] Status : uint8_t {
  kOk = 0,
  // The requested block is not in the cache. This is an expected outcome of
  // SSC reads (guarantee G2/G3), not an error.
  kNotPresent,
  // The device has no free space and could not create any (e.g. an SSC whose
  // blocks are all dirty and cannot be silently evicted).
  kNoSpace,
  // Malformed request (unaligned address, out-of-range length, ...).
  kInvalidArgument,
  // Persistent state failed validation (bad checksum, truncated log, ...).
  kCorrupt,
  // The simulated medium rejected the operation (e.g. programming a page of
  // an unerased block, or an injected program/erase fault).
  kIoError,
  // The device is operating but in a reduced mode (e.g. a cache manager that
  // has tripped into pass-through after repeated write failures).
  kDegraded,
  // The device's log region is full and the operation was refused before any
  // state change; the caller may drain the log and retry, or bypass the
  // cache. Transient by construction — a checkpoint reclaims the region.
  kBackpressure,
  // The operation (including its bounded retries) exhausted its virtual-time
  // deadline — the device kept failing rather than answering. Distinguished
  // from kIoError so callers can tell "the disk said no" from "the disk
  // stopped answering in time"; both are honest refusals, never silent loss.
  kTimeout,
};

constexpr bool IsOk(Status s) { return s == Status::kOk; }

// Consumes a Status that a caller-held invariant guarantees is kOk (e.g.
// MarkInvalid on a page the forward map proves valid): asserts in debug
// builds, deliberately discards in release. Grep-able, unlike a bare (void)
// cast — use it only where failure would mean the *caller's* logic is broken,
// never to swallow a runtime error.
inline void AssertOk(Status s) {
  assert(IsOk(s));
  (void)s;
}

constexpr std::string_view StatusName(Status s) {
  switch (s) {
    case Status::kOk:
      return "OK";
    case Status::kNotPresent:
      return "NOT_PRESENT";
    case Status::kNoSpace:
      return "NO_SPACE";
    case Status::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case Status::kCorrupt:
      return "CORRUPT";
    case Status::kIoError:
      return "IO_ERROR";
    case Status::kDegraded:
      return "DEGRADED";
    case Status::kBackpressure:
      return "BACKPRESSURE";
    case Status::kTimeout:
      return "TIMEOUT";
  }
  return "UNKNOWN";
}

}  // namespace flashtier

#endif  // FLASHTIER_UTIL_STATUS_H_
