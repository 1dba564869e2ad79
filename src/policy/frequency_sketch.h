// Frequency-sketch admission: a Flashield-style "flashiness" proxy. Every
// access increments a block's counters in a seeded count-min sketch; an
// insertion is admitted only when the sketch's estimate of the block's
// recent access count clears a threshold. All counters are halved every
// kHalvingWidths x width accesses so the estimate tracks *recent* frequency —
// old popularity decays instead of accumulating forever.
//
// The sketch is a fixed kRows x width array of 8-bit saturating counters, so
// its memory is a configuration constant and its behaviour is a pure
// function of the (seeded) access sequence.

#ifndef FLASHTIER_POLICY_FREQUENCY_SKETCH_H_
#define FLASHTIER_POLICY_FREQUENCY_SKETCH_H_

#include <array>
#include <vector>

#include "src/policy/admission_policy.h"

namespace flashtier {

class FrequencySketchPolicy final : public AdmissionPolicy {
 public:
  // Count-min rows, each hashed with its own seed.
  static constexpr uint32_t kRows = 4;
  // Accesses between halvings, in multiples of the (rounded) width: the
  // aging window scales with the sketch.
  static constexpr uint64_t kHalvingWidths = 8;

  // `width`: counters per row, rounded up to a power of two (at least 64).
  // `admit_threshold`: estimated accesses needed to admit (at least 1).
  FrequencySketchPolicy(uint32_t width, uint32_t admit_threshold, uint64_t seed,
                        size_t reject_ghost_entries);

  void OnAccess(Lbn lbn) override;

  // Min over the block's row counters (the count-min estimate).
  uint32_t Estimate(Lbn lbn) const;

  size_t MemoryUsage() const override {
    return counters_.size() * sizeof(uint8_t) + AdmissionPolicy::MemoryUsage();
  }

  uint64_t halvings() const { return halvings_; }

 protected:
  bool Decide(Lbn lbn, bool resident) override {
    if (resident) {
      return true;
    }
    if (Estimate(lbn) >= threshold_) {
      ++stats_.ghost_hits;
      return true;
    }
    return false;
  }

 private:
  size_t IndexOf(uint32_t row, Lbn lbn) const;

  uint32_t width_;  // power of two
  uint32_t threshold_;
  std::array<uint64_t, kRows> row_seeds_{};
  std::vector<uint8_t> counters_;  // kRows x width_
  uint64_t accesses_ = 0;
  uint64_t halvings_ = 0;
};

}  // namespace flashtier

#endif  // FLASHTIER_POLICY_FREQUENCY_SKETCH_H_
