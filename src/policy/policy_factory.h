// Configuration and construction of admission policies. PolicyConfig is the
// declarative knob that rides in SystemConfig; MakeAdmissionPolicy divides its
// totals across shards, so an N-shard system's total policy memory and
// flash-write budget match the single-shard configuration.

#ifndef FLASHTIER_POLICY_POLICY_FACTORY_H_
#define FLASHTIER_POLICY_POLICY_FACTORY_H_

#include <memory>
#include <string>

#include "src/flash/timing.h"
#include "src/policy/admission_policy.h"

namespace flashtier {

enum class AdmissionKind : uint8_t {
  kAdmitAll,          // default; admits everything and charges no time
  kGhostLru,          // second-hit admission over a bounded ghost window
  kFrequencySketch,   // counting-sketch threshold admission with aging
  kWriteRateLimiter,  // virtual-time token bucket on flash-write bandwidth
};

struct PolicyConfig {
  AdmissionKind kind = AdmissionKind::kAdmitAll;
  uint64_t seed = 1;
  // GhostLru.
  uint32_t ghost_entries = 16384;
  // FrequencySketch; its row count and halving interval are the policy's
  // constants (FrequencySketchPolicy::kRows and kHalvingWidths).
  uint32_t sketch_width = 16384;
  uint32_t sketch_threshold = 2;
  // WriteRateLimiter.
  double write_rate_pages_per_sec = 2000.0;
  double write_burst_pages = 256.0;
};

// Stable CLI / JSON name for a policy kind.
const char* AdmissionKindName(AdmissionKind kind);

// Parses a CLI name ("admit-all", "ghost-lru", "freq-sketch", "write-limit").
// Returns false (leaving *out untouched) for unknown names.
bool ParseAdmissionKind(const std::string& name, AdmissionKind* out);

// "admit-all, ghost-lru, freq-sketch, write-limit" — for error messages.
const char* KnownAdmissionNames();

// Builds the policy of shard `shard_index` of `shards`. The regret window
// (kRejectGhostEntries), ghost table, sketch width and write budget divide
// by `shards`, with floors of 64 entries, 1,024 counters and a one-page
// burst; the write rate divides exactly, and the sketch seed is decorrelated
// per shard. `clock` is the owning shard's virtual clock (required by the
// write-rate limiter; the others ignore it).
std::unique_ptr<AdmissionPolicy> MakeAdmissionPolicy(const PolicyConfig& config, uint32_t shards,
                                                     uint32_t shard_index, const SimClock* clock);

}  // namespace flashtier

#endif  // FLASHTIER_POLICY_POLICY_FACTORY_H_
