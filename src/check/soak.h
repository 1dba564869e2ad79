// FlashCheck crash-storm soak harness.
//
// Where the crash explorer proves every *individual* commit and recovery
// point safe on a fresh device, the soak harness proves the guarantees
// *compose over time*: one long-lived device (set) survives N seeded
// crash → recover → verify → resume cycles, with the crash point drawn
// across commit points AND recovery points (including double crashes —
// power failing again inside recovery), the same deterministic workload mix
// as the explorer, and optional fault injection, sharding and admission
// control layered on top.
//
// After every cycle the recovered device must match the shadow model of all
// acknowledged operations since the beginning of the storm, pass the full
// invariant audit, and finish recovery within a configurable virtual-time
// budget (default: the paper's 2.4 s claim). State is never rebuilt between
// cycles — corruption that survives one recovery is given every chance to
// compound, which is exactly what a single-trial explorer cannot see.
//
// The harness is the engine's soak driver (src/check/engine.h) over the
// block target.

#ifndef FLASHTIER_CHECK_SOAK_H_
#define FLASHTIER_CHECK_SOAK_H_

#include <cstdint>
#include <string>

#include "src/check/engine.h"

namespace flashtier {

struct SoakReport : CycleReport {
  uint64_t ops_executed = 0;
  PersistStats persist;  // merged across shards, after the last cycle
  FaultStats faults;     // merged across shards, after the last cycle

  bool ok() const { return violation_count == 0 && budget_exceeded == 0; }
  std::string ToString() const;
  std::string ToJson(uint64_t budget_us) const;
};

class SoakHarness {
 public:
  explicit SoakHarness(const BlockHarnessOptions& options);

  SoakReport Run();

 private:
  BlockHarnessOptions options_;
};

}  // namespace flashtier

#endif  // FLASHTIER_CHECK_SOAK_H_
