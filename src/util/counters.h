// Counter structs name their fields once.
//
// Every stats struct (FlashStats, FtlStats, PersistStats, ...) is a plain
// aggregate of uint64_t counters plus one static `kFields` list that names
// each field once as (JSON key, member), in declaration order. That list is
// the struct's whole schema: MergeCounters sums (or maxes) every listed
// field, and JsonLine::Counters (src/util/json.h) writes every listed field.
// A struct pins its list with
//
//   static_assert(AllCountersListed<FooStats>());
//
// so a field cannot be added without being listed.

#ifndef FLASHTIER_UTIL_COUNTERS_H_
#define FLASHTIER_UTIL_COUNTERS_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string_view>

namespace flashtier {

// How a field combines when per-shard stats are aggregated.
enum class CounterMerge : uint8_t {
  kSum,  // event counts: shards add up
  kMax,  // durations of work the shards do in parallel: the slowest one
};

template <typename Stats>
struct CounterField {
  constexpr CounterField(std::string_view k, uint64_t Stats::*m,
                         CounterMerge rule = CounterMerge::kSum)
      : key(k), member(m), merge(rule) {}

  std::string_view key;  // the JSON key: the member's name
  uint64_t Stats::*member;
  CounterMerge merge;
};

// Accumulates `from` into `into` field by field, per each field's rule.
template <typename Stats>
void MergeCounters(Stats& into, const Stats& from) {
  for (const CounterField<Stats>& f : Stats::kFields) {
    uint64_t& to = into.*f.member;
    to = f.merge == CounterMerge::kMax ? std::max(to, from.*f.member) : to + from.*f.member;
  }
}

// One layer's stats merged across shards, in shard order. `stats_of(shard)`
// points at the shard's stats, or is null for a shard without that layer.
template <typename Stats, typename Shards, typename StatsOf>
Stats MergeShards(const Shards& shards, StatsOf stats_of) {
  Stats out;
  for (const auto& shard : shards) {
    if (const Stats* stats = stats_of(*shard)) {
      out.Merge(*stats);
    }
  }
  return out;
}

// True when `kFields` accounts for every byte of the struct.
template <typename Stats>
constexpr bool AllCountersListed() {
  return sizeof(Stats) == std::size(Stats::kFields) * sizeof(uint64_t);
}

}  // namespace flashtier

#endif  // FLASHTIER_UTIL_COUNTERS_H_
