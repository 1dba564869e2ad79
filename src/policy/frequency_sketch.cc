#include "src/policy/frequency_sketch.h"

#include <algorithm>

#include "src/sparsemap/sparse_hash_map.h"  // MixHash64

namespace flashtier {

namespace {

uint32_t RoundUpPow2(uint32_t v) {
  uint32_t p = 1;
  while (p < v && p < (1u << 30)) {
    p <<= 1;
  }
  return p;
}

}  // namespace

FrequencySketchPolicy::FrequencySketchPolicy(const Options& options,
                                             size_t reject_ghost_entries)
    : AdmissionPolicy(reject_ghost_entries),
      width_(RoundUpPow2(std::max<uint32_t>(64, options.width))),
      threshold_(std::max<uint32_t>(1, options.admit_threshold)) {
  for (uint32_t r = 0; r < kRows; ++r) {
    // Distinct per-row hash seeds derived from the configured seed; the
    // golden-ratio stride decorrelates rows even for adjacent seeds.
    row_seeds_[r] = MixHash64(options.seed + 0x9e3779b97f4a7c15ull * (r + 1));
  }
  counters_.assign(static_cast<size_t>(kRows) * width_, 0);
}

size_t FrequencySketchPolicy::IndexOf(uint32_t row, Lbn lbn) const {
  const uint64_t h = MixHash64(lbn ^ row_seeds_[row]);
  return static_cast<size_t>(row) * width_ + (h & (width_ - 1));
}

void FrequencySketchPolicy::OnAccess(Lbn lbn, bool) {
  for (uint32_t r = 0; r < kRows; ++r) {
    uint8_t& c = counters_[IndexOf(r, lbn)];
    if (c < 0xff) {
      ++c;
    }
  }
  if (++accesses_ % (kHalvingWidths * width_) == 0) {
    for (uint8_t& c : counters_) {
      c >>= 1;
    }
    ++halvings_;
  }
}

uint32_t FrequencySketchPolicy::Estimate(Lbn lbn) const {
  uint32_t estimate = 0xff;
  for (uint32_t r = 0; r < kRows; ++r) {
    estimate = std::min<uint32_t>(estimate, counters_[IndexOf(r, lbn)]);
  }
  return estimate;
}

}  // namespace flashtier
