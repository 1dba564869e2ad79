// FlashCheck device-lifetime aging harness.
//
// Where the soak harness compresses years of crashes into one storm, the
// aging harness compresses years of *wear*: it replays the deterministic
// workload mix until N times the device capacity has been written by the
// host, with wear-out retirement, read-disturb and retention-decay faults
// active, and the endurance defenses (static wear leveling, patrol
// scrubbing, graceful capacity degradation) running on their normal
// host-write cadence.
//
// An epoch ends each time the host has attempted one more full capacity of
// writes: the quota counts the SSC's host_writes counter, which also counts
// writes the device then refuses (kNoSpace from a device full of dirty
// data), so late in life far less data lands than the quota suggests —
// ok_writes reports what did.
// At every epoch boundary the harness pauses fault draws and audits the
// device: the full structural invariant sweep (which now includes the
// endurance audits — retired blocks out of every allocator pool, exact
// usable-capacity accounting, disturb counters cleared by erase), the
// admission-policy audit, and the shadow sweep of every acknowledged
// operation since the beginning of the run. Along the way it tracks the
// lifetime curves the experiments plot: erase-count CV (wear balance),
// write amplification, per-epoch miss rate (drift as capacity shrinks), and
// how far into retirement the cache kept serving.
//
// A read that returns kOk with a token the shadow never acknowledged is an
// *undetected* corruption — the one thing aging must never produce; faults
// the device catches (kCorrupt / kIoError) are ordinary wear. The harness
// ends early, without violation, when the device stops accepting writes
// (kNoSpace / kIoError under heavy retirement is graceful degradation, not
// a bug); serving_retired_pct records how worn the medium was at the last
// epoch that still completed.

#ifndef FLASHTIER_CHECK_AGING_H_
#define FLASHTIER_CHECK_AGING_H_

#include <cstdint>
#include <string>

#include "src/check/engine.h"

namespace flashtier {

struct AgingOptions {
  // Stop after this many device capacities of host writes (the "N x" axis).
  uint32_t aging_multiple = 10;
  // Endurance defenses on; `--faults` adds wear-out, disturb and retention.
  DeviceShape device = AgingShape();
  // Scripts of `schedule.ops` operations are replayed until each epoch's
  // write quota is met; no crashes are scheduled.
  CrashSchedule schedule;
  uint64_t address_blocks = 1536;
};

struct AgingReport : Findings {
  uint32_t epochs_run = 0;          // epochs whose full write quota landed
  uint64_t ops_executed = 0;
  uint64_t host_pages_written = 0;  // across all shards (attempts; see ok_writes)
  uint64_t ok_writes = 0;           // write ops that returned kOk
  // kOk reads whose token the shadow never acknowledged. Counted separately
  // from (and in addition to) the shadow violations because this is the
  // acceptance bar: wear may destroy data, but never silently.
  uint64_t undetected_corruptions = 0;

  // Lifetime curves, as of the end of the run.
  double erase_cv = 0.0;     // stddev/mean of per-block erase counts
  double write_amp = 0.0;    // extra writes per block (Table 5 metric)
  double first_epoch_miss_rate = 0.0;
  double last_epoch_miss_rate = 0.0;
  double max_retired_pct = 0.0;
  // Retired share at the end of the last epoch that completed its write
  // quota with at least one *successful* write — how far into wear-out the
  // cache kept serving (quota alone would count refused attempts).
  double serving_retired_pct = 0.0;
  // True when the run ended because writes stopped landing (allocator
  // exhausted by retirement) rather than by reaching the aging multiple.
  bool write_exhausted = false;

  FtlStats ftl;       // merged across shards, after the last epoch
  FaultStats faults;  // merged across shards, after the last epoch

  bool ok() const { return violation_count == 0 && undetected_corruptions == 0; }
  std::string ToString() const;
  std::string ToJson() const;
};

class AgingHarness {
 public:
  explicit AgingHarness(const AgingOptions& options);

  AgingReport Run();

 private:
  AgingOptions options_;
};

}  // namespace flashtier

#endif  // FLASHTIER_CHECK_AGING_H_
