// WLFC-style write economy: a token bucket on flash-write bandwidth, driven
// by the shard's *virtual* clock. Each admitted insertion costs one token;
// tokens refill at `rate_pages_per_sec` of simulated time up to
// `burst_pages`. When the bucket is empty the insertion is demoted to
// disk-only pass-through — the cache takes write traffic only as fast as the
// configured flash-write budget allows, and bursts beyond it go around the
// cache instead of wearing it out.
//
// Using virtual time (never wall-clock time) keeps the limiter deterministic:
// the refill sequence is a pure function of the shard's operation stream, so
// parallel replay stays bit-identical across thread counts.

#ifndef FLASHTIER_POLICY_WRITE_RATE_LIMITER_H_
#define FLASHTIER_POLICY_WRITE_RATE_LIMITER_H_

#include "src/flash/timing.h"
#include "src/policy/admission_policy.h"

namespace flashtier {

class WriteRateLimiterPolicy final : public AdmissionPolicy {
 public:
  // `rate_pages_per_sec`: the sustained flash-write budget. `burst_pages`:
  // the bucket depth (at least one page).
  WriteRateLimiterPolicy(double rate_pages_per_sec, double burst_pages, const SimClock* clock,
                         size_t reject_ghost_entries)
      : AdmissionPolicy(reject_ghost_entries),
        clock_(clock),
        rate_per_us_(rate_pages_per_sec / 1e6),
        burst_(burst_pages < 1.0 ? 1.0 : burst_pages),
        tokens_(burst_) {}

  double tokens() const { return tokens_; }

 protected:
  bool Decide(Lbn, bool) override {
    Refill();
    if (tokens_ >= 1.0) {
      tokens_ -= 1.0;
      return true;
    }
    return false;
  }

 private:
  void Refill() {
    const uint64_t now = clock_->now_us();
    if (now > last_refill_us_) {
      tokens_ += static_cast<double>(now - last_refill_us_) * rate_per_us_;
      if (tokens_ > burst_) {
        tokens_ = burst_;
      }
      last_refill_us_ = now;
    }
  }

  const SimClock* clock_;
  double rate_per_us_;
  double burst_;
  double tokens_;
  uint64_t last_refill_us_ = 0;
};

}  // namespace flashtier

#endif  // FLASHTIER_POLICY_WRITE_RATE_LIMITER_H_
