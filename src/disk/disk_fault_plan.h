// Deterministic fault injection for the disk tier (DiskGuard).
//
// The disk the cache fronts fails in ways disk_model.h's pure timing model
// never exercises: sectors go latently unreadable (LSEs), individual requests
// fail transiently, and a struggling drive serves an occasional request at
// 10-100x its normal latency. A DiskFaultPlan makes those failures a
// reproducible simulation input, mirroring the flash FaultPlan: a seeded RNG
// drives per-op probabilities, and scripted trigger lists fire a fault at an
// exact op ordinal so tests can hit one specific code path. Faults follow
// real-disk semantics:
//   * a latent sector error is *sticky* — every read of that LBN fails until
//     a successful write remaps it (writes heal, which is what gives the
//     cache-driven scrubber its repair mechanism),
//   * transient read/write failures reject exactly one request and leave the
//     medium untouched (a failed write changes no content),
//   * a slow-IO spike charges extra service time but still succeeds.
//
// With `enabled == false` (the default) the disk behaves exactly as before
// and the fault paths cost nothing.

#ifndef FLASHTIER_DISK_DISK_FAULT_PLAN_H_
#define FLASHTIER_DISK_DISK_FAULT_PLAN_H_

#include <cstdint>
#include <vector>

namespace flashtier {

struct DiskFaultPlan {
  bool enabled = false;
  uint64_t seed = 1;

  // Per-operation fault probabilities, evaluated on the disk's seeded RNG.
  double read_fail_prob = 0.0;    // transient: one read rejected
  double write_fail_prob = 0.0;   // transient: one write rejected, no content change
  double latent_prob = 0.0;       // a read marks its sector sticky-unreadable
  double slow_io_prob = 0.0;      // latency spike on any operation

  // Extra service time a slow-IO spike charges on the virtual clock.
  static constexpr uint64_t kSlowIoExtraUs = 50'000;

  // Scripted triggers: 1-based ordinals counted per kind across the disk
  // (reads for read_fail_at/latent_at, writes for write_fail_at, all
  // operations for slow_at) that fire deterministically regardless of the
  // probabilities above.
  std::vector<uint64_t> read_fail_at;
  std::vector<uint64_t> write_fail_at;
  std::vector<uint64_t> latent_at;
  std::vector<uint64_t> slow_at;
};

}  // namespace flashtier

#endif  // FLASHTIER_DISK_DISK_FAULT_PLAN_H_
