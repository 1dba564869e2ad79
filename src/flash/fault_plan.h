// Deterministic fault injection for the NAND medium.
//
// Real flash fails in ways the functional model of flash_device.h never
// exercises: program operations abort, erases fail permanently as blocks wear
// out, and stored bits rot past what the ECC can correct. A FaultPlan makes
// those failures a reproducible simulation input: a seeded RNG drives per-op
// probabilities, and scripted trigger lists fire a fault at an exact op
// ordinal so tests can hit one specific code path. Faults are *sticky* the
// way real faults are:
//   * a failed program leaves the block unprogrammable until it is erased,
//   * a failed erase (or a wear-out) marks the block bad forever,
//   * a corrupt page keeps returning kCorrupt until its block is erased.
//
// With `enabled == false` (the default) the device behaves exactly as before
// and the fault paths cost nothing.

#ifndef FLASHTIER_FLASH_FAULT_PLAN_H_
#define FLASHTIER_FLASH_FAULT_PLAN_H_

#include <cstdint>
#include <vector>

#include "src/util/counters.h"

namespace flashtier {

struct FaultPlan {
  bool enabled = false;
  uint64_t seed = 1;

  // Per-operation fault probabilities, evaluated on the device's seeded RNG.
  double program_fail_prob = 0.0;
  double erase_fail_prob = 0.0;
  double read_corrupt_prob = 0.0;

  // A block whose erase count reaches this value fails its next erase and
  // goes bad, modeling wear-out. 0 means unlimited endurance.
  uint32_t wear_out_erases = 0;

  // Read disturb: once a block has absorbed more than this many reads since
  // its last erase, every further read of the block draws
  // `read_disturb_prob` to corrupt the page it touches (sticky until erase,
  // like every corruption). 0 disables the mechanism.
  uint32_t read_disturb_limit = 0;
  double read_disturb_prob = 0.0;

  // Retention decay: a page that has sat programmed for longer than this
  // much virtual time draws `retention_fail_prob` on each read to have
  // rotted in place. 0 disables the mechanism.
  uint64_t retention_age_us = 0;
  double retention_fail_prob = 0.0;

  // Scripted triggers: 1-based ordinals of program/erase/read operations
  // (counted per kind across the whole device, including GC copies) that
  // fail deterministically regardless of the probabilities above.
  std::vector<uint64_t> program_fail_at;
  std::vector<uint64_t> erase_fail_at;
  std::vector<uint64_t> read_corrupt_at;
};

struct FaultStats {
  uint64_t program_failures = 0;   // program ops rejected (injected or sticky)
  uint64_t erase_failures = 0;     // erase ops rejected; block is bad after
  uint64_t read_corruptions = 0;   // reads that returned kCorrupt
  uint64_t read_disturbs = 0;      // corruption onsets caused by read disturb
  uint64_t retention_failures = 0; // corruption onsets caused by retention decay

  // Each field once, in declaration order (src/util/counters.h).
  static constexpr CounterField<FaultStats> kFields[] = {
      {"program_failures", &FaultStats::program_failures},
      {"erase_failures", &FaultStats::erase_failures},
      {"read_corruptions", &FaultStats::read_corruptions},
      {"read_disturbs", &FaultStats::read_disturbs},
      {"retention_failures", &FaultStats::retention_failures},
  };

  // Accumulates another device's counters (per-shard aggregation).
  void Merge(const FaultStats& o) { MergeCounters(*this, o); }

  friend bool operator==(const FaultStats&, const FaultStats&) = default;
};
static_assert(AllCountersListed<FaultStats>(), "list every FaultStats field in kFields");

}  // namespace flashtier

#endif  // FLASHTIER_FLASH_FAULT_PLAN_H_
