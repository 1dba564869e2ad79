#include "src/trace/trace_stats.h"

#include <algorithm>
#include <bit>

#include "src/trace/workload.h"  // kRegionBlocks

namespace flashtier {

void AddPow2(std::vector<uint64_t>* hist, uint64_t value) {
  const size_t bucket = value == 0 ? 0 : std::bit_width(value) - 1;
  if (hist->size() <= bucket) {
    hist->resize(bucket + 1, 0);
  }
  ++(*hist)[bucket];
}

void ReuseStats::Touch(uint64_t key, bool write) {
  ++total_ops_;
  KeyCount& c = counts_[key];
  if (c.accesses != 0) {
    // Interval since this key's previous access, in trace records (>= 1;
    // consecutive accesses to the same key land in bucket 0).
    AddPow2(&reref_hist_, total_ops_ - c.last_seen);
    ++reref_accesses_;
  }
  c.last_seen = total_ops_;
  ++c.accesses;
  c.writes += write ? 1 : 0;
}

uint64_t ReuseStats::SingleAccessKeys() const {
  uint64_t n = 0;
  for (const auto& [key, c] : counts_) {
    if (c.accesses == 1) {
      ++n;
    }
  }
  return n;
}

void TraceStats::Add(const TraceRecord& record) {
  const bool write = record.op == TraceOp::kWrite;
  Touch(record.lbn, write);
  writes_ += write ? 1 : 0;
  max_lbn_ = std::max(max_lbn_, record.lbn);
}

void TraceStats::Consume(TraceSource& source) {
  TraceRecord r;
  while (source.Next(&r)) {
    Add(r);
  }
  source.Rewind();
}

namespace {

// Access-count threshold that keeps ~top_fraction of blocks; blocks at the
// threshold are included.
uint64_t ThresholdFor(const std::vector<uint64_t>& sorted_desc, double top_fraction) {
  if (sorted_desc.empty()) {
    return 0;
  }
  auto keep = static_cast<size_t>(static_cast<double>(sorted_desc.size()) * top_fraction);
  if (keep == 0) {
    keep = 1;
  }
  if (keep > sorted_desc.size()) {
    keep = sorted_desc.size();
  }
  return sorted_desc[keep - 1];
}

}  // namespace

double TraceStats::MeanAccessesPerBlock(double top_fraction) const {
  std::vector<uint64_t> acc;
  acc.reserve(counts().size());
  for (const auto& [lbn, c] : counts()) {
    acc.push_back(c.accesses);
  }
  std::sort(acc.begin(), acc.end(), std::greater<>());
  const auto keep = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(acc.size()) * top_fraction));
  uint64_t sum = 0;
  for (size_t i = 0; i < keep && i < acc.size(); ++i) {
    sum += acc[i];
  }
  return static_cast<double>(sum) / static_cast<double>(std::min(keep, acc.size()));
}

double TraceStats::MeanWritesPerBlock(double top_fraction) const {
  // Rank blocks by total accesses (cache residency proxy), then average their
  // write counts — mirroring Section 2's "writes per block of the top 25%".
  std::vector<std::pair<uint64_t, uint64_t>> rows;  // (accesses, writes)
  rows.reserve(counts().size());
  for (const auto& [lbn, c] : counts()) {
    rows.emplace_back(c.accesses, c.writes);
  }
  std::sort(rows.begin(), rows.end(), std::greater<>());
  const auto keep = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(rows.size()) * top_fraction));
  uint64_t sum = 0;
  for (size_t i = 0; i < keep && i < rows.size(); ++i) {
    sum += rows[i].second;
  }
  return static_cast<double>(sum) / static_cast<double>(std::min(keep, rows.size()));
}

std::vector<uint64_t> TraceStats::RegionDensities(double top_fraction) const {
  std::vector<uint64_t> acc;
  acc.reserve(counts().size());
  for (const auto& [lbn, c] : counts()) {
    acc.push_back(c.accesses);
  }
  std::sort(acc.begin(), acc.end(), std::greater<>());
  const uint64_t threshold = ThresholdFor(acc, top_fraction);

  std::unordered_map<uint64_t, uint64_t> per_region;
  for (const auto& [lbn, c] : counts()) {
    if (c.accesses >= threshold) {
      ++per_region[lbn / kRegionBlocks];
    }
  }
  std::vector<uint64_t> densities;
  densities.reserve(per_region.size());
  // flashlint: allow(unordered-iter): values are sorted below, order-free
  for (const auto& [region, n] : per_region) {
    densities.push_back(n);
  }
  std::sort(densities.begin(), densities.end());
  return densities;
}

void KvTraceStats::Add(const KvTraceRecord& record) {
  Touch(record.key, record.op == KvOp::kSet);
  switch (record.op) {
    case KvOp::kGet:
      ++gets_;
      break;
    case KvOp::kSet:
      ++sets_;
      set_bytes_ += record.size;
      AddPow2(&size_hist_, record.size);
      break;
    case KvOp::kDelete:
      ++deletes_;
      break;
  }
}

void KvTraceStats::Consume(KvTraceSource& source) {
  KvTraceRecord r;
  while (source.Next(&r)) {
    Add(r);
  }
  source.Rewind();
}

double TraceStats::FractionOfRegionsBelow(double top_fraction, double percent_of_region) const {
  const std::vector<uint64_t> densities = RegionDensities(top_fraction);
  if (densities.empty()) {
    return 0.0;
  }
  const auto cutoff =
      static_cast<uint64_t>(percent_of_region / 100.0 * static_cast<double>(kRegionBlocks));
  size_t below = 0;
  for (uint64_t d : densities) {
    if (d < cutoff) {
      ++below;
    }
  }
  return static_cast<double>(below) / static_cast<double>(densities.size());
}

}  // namespace flashtier
