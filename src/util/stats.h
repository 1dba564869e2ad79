// Small statistics helpers used by the replay engine and benches.

#ifndef FLASHTIER_UTIL_STATS_H_
#define FLASHTIER_UTIL_STATS_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace flashtier {

// Fixed log2-bucketed histogram for latency percentiles. Values are expected
// in microseconds; buckets cover [0, 2^63).
class LatencyHistogram {
 public:
  LatencyHistogram() : buckets_(64, 0) {}

  void Add(uint64_t value_us) {
    const int bucket = value_us == 0 ? 0 : 64 - std::countl_zero(value_us);
    ++buckets_[bucket];
    ++count_;
    sum_ += value_us;
    max_ = std::max(max_, value_us);
  }

  uint64_t count() const { return count_; }
  double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  uint64_t max() const { return max_; }

  // The p-th percentile (p in [0,100]), interpolated linearly inside the
  // power-of-two bucket that holds the p*count/100-th sample: bucket i >= 1
  // covers [2^(i-1), 2^i), and the rank's position within the bucket's
  // population maps linearly onto that range. Results are clamped to the
  // largest observed sample so a sparse top bucket cannot report a latency
  // nothing reached. Deterministic: a pure function of bucket counts, which
  // merge in shard order regardless of thread count.
  double PercentileUs(double p) const {
    if (count_ == 0) {
      return 0.0;
    }
    double rank = p / 100.0 * static_cast<double>(count_);
    if (rank > static_cast<double>(count_)) {
      rank = static_cast<double>(count_);
    }
    uint64_t before = 0;  // samples in buckets below i
    for (size_t i = 0; i < buckets_.size(); ++i) {
      if (buckets_[i] == 0) {
        continue;
      }
      const uint64_t in_bucket = buckets_[i];
      if (static_cast<double>(before + in_bucket) >= rank) {
        const double lo = i == 0 ? 0.0 : static_cast<double>(uint64_t{1} << (i - 1));
        const double hi = static_cast<double>(i == 0 ? uint64_t{1} : uint64_t{1} << i);
        double frac = (rank - static_cast<double>(before)) / static_cast<double>(in_bucket);
        if (frac < 0.0) {
          frac = 0.0;
        }
        const double value = lo + (hi - lo) * frac;
        const double cap = static_cast<double>(max_);
        return value < cap ? value : cap;
      }
      before += in_bucket;
    }
    return static_cast<double>(max_);
  }

  void Reset() {
    std::fill(buckets_.begin(), buckets_.end(), 0);
    count_ = 0;
    sum_ = 0;
    max_ = 0;
  }

  // Accumulates another histogram. Bucket-wise sums commute, so merging
  // per-shard histograms in shard order yields the same result no matter how
  // many threads produced them.
  void Merge(const LatencyHistogram& o) {
    for (size_t i = 0; i < buckets_.size(); ++i) {
      buckets_[i] += o.buckets_[i];
    }
    count_ += o.count_;
    sum_ += o.sum_;
    max_ = std::max(max_, o.max_);
  }

  bool operator==(const LatencyHistogram& o) const {
    return buckets_ == o.buckets_ && count_ == o.count_ && sum_ == o.sum_ && max_ == o.max_;
  }

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t max_ = 0;
};

}  // namespace flashtier

#endif  // FLASHTIER_UTIL_STATS_H_
