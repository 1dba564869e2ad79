#include "src/policy/policy_factory.h"

#include <algorithm>
#include <cassert>

#include "src/policy/frequency_sketch.h"
#include "src/policy/ghost_lru.h"
#include "src/policy/write_rate_limiter.h"
#include "src/util/rng.h"

namespace flashtier {

const char* AdmissionKindName(AdmissionKind kind) {
  switch (kind) {
    case AdmissionKind::kAdmitAll:
      return "admit-all";
    case AdmissionKind::kGhostLru:
      return "ghost-lru";
    case AdmissionKind::kFrequencySketch:
      return "freq-sketch";
    case AdmissionKind::kWriteRateLimiter:
      return "write-limit";
  }
  return "unknown";
}

bool ParseAdmissionKind(const std::string& name, AdmissionKind* out) {
  if (name == "admit-all") {
    *out = AdmissionKind::kAdmitAll;
  } else if (name == "ghost-lru") {
    *out = AdmissionKind::kGhostLru;
  } else if (name == "freq-sketch") {
    *out = AdmissionKind::kFrequencySketch;
  } else if (name == "write-limit") {
    *out = AdmissionKind::kWriteRateLimiter;
  } else {
    return false;
  }
  return true;
}

const char* KnownAdmissionNames() {
  return "admit-all, ghost-lru, freq-sketch, write-limit";
}

std::unique_ptr<AdmissionPolicy> MakeAdmissionPolicy(const PolicyConfig& config, uint32_t shards,
                                                     uint32_t shard_index, const SimClock* clock) {
  const uint32_t n = std::max<uint32_t>(1, shards);
  const size_t rejects = std::max<uint32_t>(64, kRejectGhostEntries / n);
  switch (config.kind) {
    case AdmissionKind::kAdmitAll:
      return std::make_unique<AdmitAllPolicy>(rejects);
    case AdmissionKind::kGhostLru: {
      GhostLruPolicy::Options opts;
      opts.ghost_entries = std::max<uint32_t>(64, config.ghost_entries / n);
      opts.required_misses = config.ghost_required_misses;
      return std::make_unique<GhostLruPolicy>(opts, rejects);
    }
    case AdmissionKind::kFrequencySketch: {
      FrequencySketchPolicy::Options opts;
      opts.width = std::max<uint32_t>(1024, config.sketch_width / n);
      opts.admit_threshold = config.sketch_threshold;
      opts.seed = ShardSeed(config.seed, shard_index);
      return std::make_unique<FrequencySketchPolicy>(opts, rejects);
    }
    case AdmissionKind::kWriteRateLimiter: {
      assert(clock != nullptr);
      WriteRateLimiterPolicy::Options opts;
      // The rate divides exactly, so the shards' budgets sum to the total.
      opts.rate_pages_per_sec = config.write_rate_pages_per_sec / n;
      opts.burst_pages = std::max(1.0, config.write_burst_pages / n);
      return std::make_unique<WriteRateLimiterPolicy>(opts, clock, rejects);
    }
  }
  return std::make_unique<AdmitAllPolicy>(rejects);
}

}  // namespace flashtier
