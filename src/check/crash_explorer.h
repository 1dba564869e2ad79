// FlashCheck crash-point model checker.
//
// The paper states FlashTier's consistency contract as three guarantees:
//   G1  write-dirty data is durable when the request completes,
//   G2  a read after write-clean returns the new data or not-present —
//       never an older version,
//   G3  a read after an acknowledged evict returns not-present.
//
// This explorer turns those sentences into an exhaustively checked property.
// It scripts a deterministic mixed workload (write-dirty / write-clean /
// read / clean / evict / background GC), counts every durability commit
// point the run crosses (each log append, flush boundary, checkpoint
// boundary — including every checkpoint segment — and silent-eviction erase
// barrier), then replays the same workload once per commit point with a
// crash injected at exactly that point. After each crash it runs recovery
// and verifies the recovered cache against a shadow model of acknowledged
// operations (src/check/shadow_model.h).
//
// Recovery itself is also explored: every trial's recovery crosses a
// sequence of RecoveryPoint boundaries (checkpoint load, log scan, map
// rebuild), and a second crash can be injected at any of them — including a
// third crash inside the recovery-from-the-recovery-crash (the double-crash
// diagonal). Recovery only reads durable state, so re-running it after a
// mid-recovery power failure must converge to the same result; the explorer
// verifies G1-G3 and the structural invariants hold at every such point.
//
// The explorer is the engine's exhaustive driver (src/check/engine.h) over
// the block target.

#ifndef FLASHTIER_CHECK_CRASH_EXPLORER_H_
#define FLASHTIER_CHECK_CRASH_EXPLORER_H_

#include <cstdint>
#include <string>

#include "src/check/engine.h"

namespace flashtier {

struct CrashExplorerReport : CycleReport {
  // Faults the crash-free baseline run injected (proof the schedule fired;
  // every trial replays the same deterministic plan up to its crash point).
  FaultStats baseline_faults;

  bool ok() const { return violation_count == 0; }
  std::string ToString() const;
};

class CrashExplorer {
 public:
  explicit CrashExplorer(const BlockHarnessOptions& options);

  // Runs the full exploration: one crash-free counting pass, one trial per
  // (strided) commit point, then the crash-during-recovery trials.
  CrashExplorerReport Explore();

 private:
  BlockHarnessOptions options_;
};

}  // namespace flashtier

#endif  // FLASHTIER_CHECK_CRASH_EXPLORER_H_
