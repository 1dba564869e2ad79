// Trace statistics: Table 3 characteristics and the Figure 1 region-density
// distribution.

#ifndef FLASHTIER_TRACE_TRACE_STATS_H_
#define FLASHTIER_TRACE_TRACE_STATS_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/trace/kv_trace.h"
#include "src/trace/trace.h"

namespace flashtier {

// Adds `value` to a power-of-two histogram: bucket i counts values in
// [2^i, 2^(i+1)), and 0 lands in bucket 0.
void AddPow2(std::vector<uint64_t>* hist, uint64_t value);

// The reuse view both trace kinds share: per-key access counts and
// re-reference intervals, the admission-control view of a trace. For every
// access to a previously seen key (LBN or object key), the number of trace
// records since that key's prior access is bucketed by power of two. A trace
// whose mass sits in small buckets rewards second-hit admission (a short
// ghost table recognizes the reuse); mass in the large buckets plus many
// single-access keys is traffic a selective policy can keep out of flash at
// little hit-rate cost.
class ReuseStats {
 public:
  uint64_t total_ops() const { return total_ops_; }
  uint64_t unique_keys() const { return counts_.size(); }
  const std::vector<uint64_t>& RerefIntervalHistogram() const { return reref_hist_; }
  // Accesses that had a prior reference (the histogram's total mass).
  uint64_t reref_accesses() const { return reref_accesses_; }
  // Keys referenced exactly once — cache fills that can never hit.
  uint64_t SingleAccessKeys() const;

 protected:
  struct KeyCount {
    uint64_t accesses = 0;
    uint64_t writes = 0;
    uint64_t last_seen = 0;  // 1-based index of this key's latest access
  };

  // Counts the next trace record: an access to `key`, a write if `write`.
  void Touch(uint64_t key, bool write);
  const std::unordered_map<uint64_t, KeyCount>& counts() const { return counts_; }

 private:
  std::unordered_map<uint64_t, KeyCount> counts_;
  uint64_t total_ops_ = 0;
  std::vector<uint64_t> reref_hist_;
  uint64_t reref_accesses_ = 0;
};

class TraceStats : public ReuseStats {
 public:
  void Add(const TraceRecord& record);

  // Consumes an entire source (leaves it rewound).
  void Consume(TraceSource& source);

  uint64_t writes() const { return writes_; }
  double write_fraction() const {
    return total_ops() == 0 ? 0.0 : static_cast<double>(writes_) / static_cast<double>(total_ops());
  }
  uint64_t unique_blocks() const { return unique_keys(); }
  // Address range spanned by the trace ("Range" in Table 3): highest
  // referenced byte address, i.e. the footprint of the containing disk.
  uint64_t range_bytes() const { return total_ops() == 0 ? 0 : (max_lbn_ + 1) * 4096; }

  // Mean accesses (and writes) per referenced block, optionally restricted to
  // the `top_fraction` most-accessed blocks. Section 2 observes writes/block
  // of the top 25% is ~4x the whole-trace average for write-heavy traces.
  double MeanAccessesPerBlock(double top_fraction = 1.0) const;
  double MeanWritesPerBlock(double top_fraction = 1.0) const;

  // Figure 1: for every 100,000-block region containing at least one of the
  // top-`top_fraction` blocks, the number of those blocks that fall in it.
  // Returned sorted ascending (a CDF over regions).
  std::vector<uint64_t> RegionDensities(double top_fraction) const;

  // Fraction of the (filtered) regions whose referenced-block count is below
  // `percent_of_region` percent of the region size.
  double FractionOfRegionsBelow(double top_fraction, double percent_of_region) const;

 private:
  uint64_t writes_ = 0;
  Lbn max_lbn_ = 0;
};

// KV-trace statistics (DESIGN.md §5k): the object-level view a slab-packing
// cache and its admission policy care about — how small the objects are
// (packing benefit) and how soon keys are re-referenced (admission benefit).
class KvTraceStats : public ReuseStats {
 public:
  void Add(const KvTraceRecord& record);

  // Consumes an entire source (leaves it rewound).
  void Consume(KvTraceSource& source);

  uint64_t gets() const { return gets_; }
  uint64_t sets() const { return sets_; }
  uint64_t deletes() const { return deletes_; }
  uint64_t set_bytes() const { return set_bytes_; }
  double MeanObjectBytes() const {
    return sets_ == 0 ? 0.0 : static_cast<double>(set_bytes_) / static_cast<double>(sets_);
  }
  // Sets per 4 KB slab at perfect packing vs one: the headroom slab packing
  // has over one-object-per-block placement for this trace.
  double ObjectsPerSlabAtMeanSize() const {
    const double mean = MeanObjectBytes();
    return mean == 0.0 ? 0.0 : 4096.0 / mean;
  }

  // Object-size histogram over set operations: bucket i counts sets with
  // size in [2^i, 2^(i+1)).
  const std::vector<uint64_t>& SizeHistogram() const { return size_hist_; }

 private:
  uint64_t gets_ = 0;
  uint64_t sets_ = 0;
  uint64_t deletes_ = 0;
  uint64_t set_bytes_ = 0;
  std::vector<uint64_t> size_hist_;
};

}  // namespace flashtier

#endif  // FLASHTIER_TRACE_TRACE_STATS_H_
