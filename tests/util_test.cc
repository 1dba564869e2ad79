// Unit tests for src/util: CRC32-C, Bitmap, RNG/Zipf, statistics, counter
// lists, the JSON line writer, args.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/cache/cache_manager.h"
#include "src/disk/disk_model.h"
#include "src/flash/fault_plan.h"
#include "src/flash/flash_device.h"
#include "src/ftl/ftl_stats.h"
#include "src/kv/kv_stats.h"
#include "src/policy/admission_policy.h"
#include "src/ssc/persist.h"
#include "src/util/args.h"
#include "src/util/bitmap.h"
#include "src/util/counters.h"
#include "src/util/crc32.h"
#include "src/util/json.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace flashtier {
namespace {

// ---- CRC32-C ----

TEST(Crc32cTest, KnownVectors) {
  // iSCSI/RFC 3720 test vectors for CRC32-C.
  const uint8_t zeros[32] = {};
  EXPECT_EQ(Crc32c(zeros, 32), 0x8a9136aau);

  uint8_t ones[32];
  for (auto& b : ones) {
    b = 0xff;
  }
  EXPECT_EQ(Crc32c(ones, 32), 0x62a8ab43u);

  const std::string s = "123456789";
  EXPECT_EQ(Crc32c(s.data(), s.size()), 0xe3069283u);
}

TEST(Crc32cTest, IncrementalMatchesOneShot) {
  const std::string data = "FlashTier: a lightweight, consistent and durable storage cache";
  const uint32_t whole = Crc32c(data.data(), data.size());
  uint32_t inc = 0;
  for (size_t split = 1; split < data.size(); ++split) {
    inc = Crc32c(0, data.data(), split);
    inc = Crc32c(inc, data.data() + split, data.size() - split);
    EXPECT_EQ(inc, whole) << "split at " << split;
  }
}

// The dispatched kernel must match the bytewise reference bit for bit on
// every length and alignment, so a checksum never depends on the host CPU.
// Lengths cover 40-byte checkpoint entries, 48-byte log records and 4 KiB
// pages; offsets exercise unaligned word loads; seeds and splits exercise
// chained calls as SegmentCrc makes them.
TEST(Crc32cTest, MatchesBytewiseReference) {
  constexpr size_t kMaxLen = 4104;
  constexpr size_t kOffsets = 8;
  std::vector<uint8_t> buf(kMaxLen + kOffsets);
  Rng rng(31);
  for (auto& b : buf) {
    b = static_cast<uint8_t>(rng.Next());
  }
  const uint32_t seeds[] = {0u, 1u, 0xffffffffu, 0x8a9136aau, 0x12345678u};
  for (size_t len = 0; len <= kMaxLen; ++len) {
    for (size_t off = 0; off < kOffsets; ++off) {
      const uint8_t* p = buf.data() + off;
      const uint32_t seed = seeds[(len + off) % std::size(seeds)];
      ASSERT_EQ(Crc32c(seed, p, len), Crc32cBytewise(seed, p, len))
          << "len " << len << " offset " << off << " seed " << seed;
    }
  }
  for (const size_t len : {size_t{40}, size_t{48}, size_t{4096}}) {
    for (size_t split = 0; split <= len; split += len / 8 + 1) {
      const uint8_t* p = buf.data() + 3;
      const uint32_t inc = Crc32c(Crc32c(0, p, split), p + split, len - split);
      EXPECT_EQ(inc, Crc32cBytewise(0, p, len)) << "len " << len << " split " << split;
    }
  }
}

TEST(Crc32cTest, DetectsSingleBitFlips) {
  uint8_t buf[64] = {1, 2, 3, 4, 5};
  const uint32_t base = Crc32c(buf, sizeof(buf));
  for (int byte = 0; byte < 64; byte += 7) {
    for (int bit = 0; bit < 8; bit += 3) {
      buf[byte] ^= static_cast<uint8_t>(1 << bit);
      EXPECT_NE(Crc32c(buf, sizeof(buf)), base);
      buf[byte] ^= static_cast<uint8_t>(1 << bit);
    }
  }
}

// ---- Bitmap ----

TEST(BitmapTest, SetClearTest) {
  Bitmap bm(200);
  EXPECT_EQ(bm.size(), 200u);
  EXPECT_EQ(bm.Count(), 0u);
  bm.Set(0);
  bm.Set(63);
  bm.Set(64);
  bm.Set(199);
  EXPECT_TRUE(bm.Test(0));
  EXPECT_TRUE(bm.Test(63));
  EXPECT_TRUE(bm.Test(64));
  EXPECT_TRUE(bm.Test(199));
  EXPECT_FALSE(bm.Test(1));
  EXPECT_EQ(bm.Count(), 4u);
  bm.Clear(63);
  EXPECT_FALSE(bm.Test(63));
  EXPECT_EQ(bm.Count(), 3u);
}

TEST(BitmapTest, RankMatchesNaiveCount) {
  Bitmap bm(500);
  Rng rng(3);
  std::vector<bool> ref(500, false);
  for (int i = 0; i < 200; ++i) {
    const size_t pos = rng.Below(500);
    bm.Set(pos);
    ref[pos] = true;
  }
  for (size_t i = 0; i <= 500; i += 13) {
    size_t naive = 0;
    for (size_t j = 0; j < i && j < 500; ++j) {
      naive += ref[j] ? 1 : 0;
    }
    EXPECT_EQ(bm.RankBelow(std::min<size_t>(i, 500)), naive) << i;
  }
}

TEST(BitmapTest, FindFirstSet) {
  Bitmap bm(300);
  EXPECT_EQ(bm.FindFirstSet(), 300u);
  bm.Set(5);
  bm.Set(130);
  bm.Set(299);
  EXPECT_EQ(bm.FindFirstSet(), 5u);
  EXPECT_EQ(bm.FindFirstSet(6), 130u);
  EXPECT_EQ(bm.FindFirstSet(131), 299u);
  EXPECT_EQ(bm.FindFirstSet(300), 300u);
}

TEST(BitmapTest, AssignAndReset) {
  Bitmap bm(64);
  bm.Assign(10, true);
  EXPECT_TRUE(bm.Test(10));
  bm.Assign(10, false);
  EXPECT_FALSE(bm.Test(10));
  bm.Set(1);
  bm.Set(2);
  bm.Reset();
  EXPECT_EQ(bm.Count(), 0u);
}

// ---- RNG ----

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, BelowInRangeAndRoughlyUniform) {
  Rng rng(7);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100'000; ++i) {
    const uint64_t v = rng.Below(10);
    ASSERT_LT(v, 10u);
    ++counts[v];
  }
  for (int c : counts) {
    EXPECT_GT(c, 8'000);
    EXPECT_LT(c, 12'000);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10'000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

class ZipfTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfTest, SamplesInRangeAndSkewed) {
  const double s = GetParam();
  const uint64_t n = 10'000;
  ZipfSampler zipf(n, s);
  Rng rng(11);
  std::vector<uint32_t> counts(n, 0);
  const int samples = 200'000;
  for (int i = 0; i < samples; ++i) {
    const uint64_t v = zipf.Sample(rng);
    ASSERT_LT(v, n);
    ++counts[v];
  }
  // Rank 0 must be the most popular, and the top 1% must hold a
  // disproportionate share of mass.
  uint64_t top = 0;
  for (uint64_t i = 0; i < n / 100; ++i) {
    top += counts[i];
  }
  EXPECT_GT(counts[0], counts[n - 1]);
  EXPECT_GT(static_cast<double>(top) / samples, 0.02);  // >> uniform's 1%
}

INSTANTIATE_TEST_SUITE_P(Skews, ZipfTest, ::testing::Values(0.8, 0.95, 1.0, 1.05, 1.2));

TEST(ZipfTest, Rank0FrequencyMatchesTheory) {
  // For s=1, P(rank 0) = 1/H_n. With n=1000, H_1000 ~ 7.485.
  const uint64_t n = 1000;
  ZipfSampler zipf(n, 1.0);
  Rng rng(13);
  int hits = 0;
  const int samples = 300'000;
  for (int i = 0; i < samples; ++i) {
    if (zipf.Sample(rng) == 0) {
      ++hits;
    }
  }
  const double p = static_cast<double>(hits) / samples;
  EXPECT_NEAR(p, 1.0 / 7.485, 0.015);
}

// ---- Stats ----

TEST(RunningStatTest, Basics) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  s.Add(2.0);
  s.Add(4.0);
  s.Add(9.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  s.Reset();
  EXPECT_EQ(s.count(), 0u);
}

TEST(LatencyHistogramTest, MeanAndMax) {
  LatencyHistogram h;
  h.Add(100);
  h.Add(200);
  h.Add(300);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.mean(), 200.0);
  EXPECT_EQ(h.max(), 300u);
}

TEST(LatencyHistogramTest, QuantilesAreMonotoneAndBracketing) {
  LatencyHistogram h;
  Rng rng(17);
  for (int i = 0; i < 10'000; ++i) {
    h.Add(rng.Below(100'000));
  }
  const uint64_t p50 = h.Quantile(0.5);
  const uint64_t p99 = h.Quantile(0.99);
  EXPECT_LE(p50, p99);
  // log2 buckets: the true median ~50000 lies in [32768, 65535].
  EXPECT_GE(p50, 32767u);
  EXPECT_LE(p50, 65535u);
}

TEST(LatencyHistogramTest, ZeroValues) {
  LatencyHistogram h;
  h.Add(0);
  h.Add(0);
  EXPECT_EQ(h.Quantile(0.5), 0u);
  EXPECT_DOUBLE_EQ(h.PercentileUs(50), 0.0);
  EXPECT_DOUBLE_EQ(h.PercentileUs(99.9), 0.0);
}

// PercentileUs interpolates linearly inside a power-of-two bucket. 100
// identical 100 us samples all land in bucket [64, 128): rank 50 of 100 is
// halfway through the bucket's population, so P50 = 64 + 64 * 0.5 = 96 —
// pinned exactly, including the clamp to the observed max for high p.
TEST(LatencyHistogramTest, PercentileInterpolatesWithinBucket) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) {
    h.Add(100);
  }
  EXPECT_DOUBLE_EQ(h.PercentileUs(50), 96.0);
  EXPECT_DOUBLE_EQ(h.PercentileUs(25), 80.0);          // 64 + 64 * 0.25
  EXPECT_DOUBLE_EQ(h.PercentileUs(95), 100.0);         // 124.8 clamped to max
  EXPECT_DOUBLE_EQ(h.PercentileUs(99.9), 100.0);
  EXPECT_DOUBLE_EQ(h.PercentileUs(100), 100.0);
}

// Pinned values across two populated buckets: four samples in [1, 2), six
// in [2, 4). Rank walks the cumulative counts; the fraction within the
// holding bucket maps linearly onto its range.
TEST(LatencyHistogramTest, PercentileSpansBuckets) {
  LatencyHistogram h;
  for (int i = 0; i < 4; ++i) {
    h.Add(1);
  }
  for (int i = 0; i < 4; ++i) {
    h.Add(2);
  }
  h.Add(3);
  h.Add(3);
  EXPECT_DOUBLE_EQ(h.PercentileUs(10), 1.25);              // rank 1 of 4 in [1, 2)
  EXPECT_DOUBLE_EQ(h.PercentileUs(40), 2.0);               // bucket boundary
  EXPECT_DOUBLE_EQ(h.PercentileUs(50), 2.0 + 2.0 / 6.0);   // rank 5: 1 of 6 into [2, 4)
  EXPECT_DOUBLE_EQ(h.PercentileUs(100), 3.0);              // clamped to max
  EXPECT_DOUBLE_EQ(h.PercentileUs(0), 1.0);                // empty prefix clamps to lo
}

TEST(LatencyHistogramTest, PercentilesAreMonotone) {
  LatencyHistogram h;
  Rng rng(23);
  for (int i = 0; i < 10'000; ++i) {
    h.Add(rng.Below(100'000));
  }
  double prev = 0.0;
  for (const double p : {1.0, 10.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0}) {
    const double v = h.PercentileUs(p);
    EXPECT_GE(v, prev) << "p" << p;
    prev = v;
  }
  EXPECT_LE(prev, static_cast<double>(h.max()));
}

// Merging shard histograms preserves percentiles exactly: bucket-wise sums
// are order-independent, so split populations report identical tails.
TEST(LatencyHistogramTest, MergePreservesPercentiles) {
  LatencyHistogram whole;
  LatencyHistogram a;
  LatencyHistogram b;
  Rng rng(29);
  for (int i = 0; i < 5'000; ++i) {
    const uint64_t v = rng.Below(10'000);
    whole.Add(v);
    (i % 2 == 0 ? a : b).Add(v);
  }
  a.Merge(b);
  EXPECT_TRUE(a == whole);
  for (const double p : {50.0, 99.0, 99.9}) {
    EXPECT_DOUBLE_EQ(a.PercentileUs(p), whole.PercentileUs(p));
  }
}

// ---- Counter lists ----

template <typename Stats>
class CounterListTest : public ::testing::Test {};
using CounterStructs = ::testing::Types<FlashStats, FaultStats, FtlStats, PersistStats,
                                        ManagerStats, DiskStats, PolicyStats, KvStats>;
TYPED_TEST_SUITE(CounterListTest, CounterStructs);

// The i-th listed field holds 1000 + i, written through the list.
template <typename Stats>
Stats DistinctCounters() {
  Stats stats;
  uint64_t value = 1000;
  for (const CounterField<Stats>& f : Stats::kFields) {
    stats.*f.member = value++;
  }
  return stats;
}

TYPED_TEST(CounterListTest, ListsEveryMemberOnceUnderAUniqueKey) {
  using Stats = TypeParam;
  std::set<std::string_view> keys;
  for (size_t i = 0; i < std::size(Stats::kFields); ++i) {
    EXPECT_TRUE(keys.insert(Stats::kFields[i].key).second) << Stats::kFields[i].key;
    for (size_t j = 0; j < i; ++j) {
      EXPECT_NE(Stats::kFields[i].member, Stats::kFields[j].member) << Stats::kFields[i].key;
    }
  }
  EXPECT_EQ(keys.size() * sizeof(uint64_t), sizeof(Stats));
}

TYPED_TEST(CounterListTest, MergeSumsEveryFieldAndMaxesRecoveryTimes) {
  using Stats = TypeParam;
  const Stats stats = DistinctCounters<Stats>();
  Stats merged = stats;
  merged.Merge(stats);
  // Shards recover in parallel, so recovery times keep the slowest shard.
  const std::set<std::string_view> max_merged = {"last_recovery_us", "checkpoint_load_us",
                                                 "log_replay_us", "rebuild_us"};
  const bool is_persist = std::is_same_v<Stats, PersistStats>;
  for (const CounterField<Stats>& f : Stats::kFields) {
    const bool takes_max = is_persist && max_merged.count(f.key) != 0;
    EXPECT_EQ(merged.*f.member, (takes_max ? 1 : 2) * stats.*f.member) << f.key;
  }
  EXPECT_FALSE(merged == stats);
  Stats again = stats;
  again.Merge(stats);
  EXPECT_TRUE(merged == again);
}

TYPED_TEST(CounterListTest, JsonBlockCarriesEveryFieldOnceWithItsValue) {
  using Stats = TypeParam;
  const Stats stats = DistinctCounters<Stats>();
  const std::string line = JsonLine().Block("block", stats).Finish();
  const std::string head = "{\"block\":{";
  ASSERT_EQ(line.compare(0, head.size(), head), 0) << line;
  ASSERT_EQ(line.substr(line.size() - 2), "}}") << line;
  std::map<std::string, uint64_t> values;
  std::vector<std::string> order;
  std::stringstream body(line.substr(head.size(), line.size() - head.size() - 2));
  std::string pair;
  while (std::getline(body, pair, ',')) {
    const size_t colon = pair.find("\":");
    ASSERT_TRUE(pair.front() == '"' && colon != std::string::npos) << pair;
    const std::string key = pair.substr(1, colon - 1);
    EXPECT_TRUE(values.emplace(key, std::stoull(pair.substr(colon + 2))).second) << key;
    order.push_back(key);
  }
  ASSERT_EQ(order.size(), std::size(Stats::kFields));
  for (size_t i = 0; i < order.size(); ++i) {
    const CounterField<Stats>& f = Stats::kFields[i];
    EXPECT_EQ(order[i], f.key);  // declaration order
    EXPECT_EQ(values[order[i]], stats.*f.member) << f.key;
  }
}

// ---- JSON line writer ----

TEST(JsonLineTest, FormatsValuesAsPrintfDoes) {
  JsonLine line;
  line.String("name", "say \"hi\"\\")
      .Uint("max", UINT64_MAX)
      .Uint("zero", 0)
      .Double("third", 1.0 / 3.0, 4)
      .Double("big", 131283.46, 1)
      .Double("none", 0.0, 2)
      .Bool("yes", true)
      .Object("inner")
      .Bool("no", false)
      .End()
      .Object("empty")
      .End();
  EXPECT_EQ(line.Finish(),
            "{\"name\":\"say \\\"hi\\\"\\\\\",\"max\":18446744073709551615,\"zero\":0,"
            "\"third\":0.3333,\"big\":131283.5,\"none\":0.00,\"yes\":true,"
            "\"inner\":{\"no\":false},\"empty\":{}}");
}

// Doubles are written exactly as "%.Nf" prints them, however long.
TEST(JsonLineTest, DoublesMatchPrintf) {
  for (const double value : {0.0, 0.5, 2.675, 1.0 / 3.0, 123456789.987654321, 1e300, -7.25}) {
    for (const int decimals : {0, 1, 2, 3, 4}) {
      char printed[512];
      std::snprintf(printed, sizeof(printed), "%.*f", decimals, value);
      EXPECT_EQ(JsonLine().Double("v", value, decimals).Finish(),
                std::string("{\"v\":") + printed + "}");
    }
  }
}

TEST(JsonLineTest, FinishClosesOpenObjects) {
  JsonLine line;
  line.Object("a").Object("b").Uint("c", 1);
  EXPECT_EQ(line.Finish(), "{\"a\":{\"b\":{\"c\":1}}}");
  EXPECT_EQ(JsonLine().Finish(), "{}");
}

TEST(JsonLineTest, WriteLineAppendsOrReplaces) {
  const std::string path = ::testing::TempDir() + "json_line_test.jsonl";
  std::remove(path.c_str());
  ASSERT_TRUE(WriteLine(path, "{\"a\":1}"));
  ASSERT_TRUE(WriteLine(path, "{\"b\":2}"));
  std::stringstream appended;
  appended << std::ifstream(path).rdbuf();
  EXPECT_EQ(appended.str(), "{\"a\":1}\n{\"b\":2}\n");
  ASSERT_TRUE(WriteLine(path, "{\"c\":3}", /*append=*/false));
  std::stringstream replaced;
  replaced << std::ifstream(path).rdbuf();
  EXPECT_EQ(replaced.str(), "{\"c\":3}\n");
  std::remove(path.c_str());
  EXPECT_FALSE(WriteLine(::testing::TempDir() + "no-such-dir/x.jsonl", "{}"));
}

// ---- Args ----

TEST(ArgParserTest, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--ops=500", "--name", "homes", "--verbose"};
  ArgParser args(5, const_cast<char**>(argv));
  ASSERT_TRUE(args.ok());
  EXPECT_EQ(args.GetInt("ops", 0), 500);
  EXPECT_EQ(args.GetString("name", ""), "homes");
  EXPECT_TRUE(args.GetBool("verbose", false));
  EXPECT_EQ(args.GetInt("missing", 42), 42);
  EXPECT_DOUBLE_EQ(args.GetDouble("missing", 1.5), 1.5);
}

TEST(ArgParserTest, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "oops"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_FALSE(args.ok());
  EXPECT_NE(args.error().find("oops"), std::string::npos);
}

TEST(ArgParserTest, DoubleParsing) {
  const char* argv[] = {"prog", "--scale=0.25"};
  ArgParser args(2, const_cast<char**>(argv));
  ASSERT_TRUE(args.ok());
  EXPECT_DOUBLE_EQ(args.GetDouble("scale", 1.0), 0.25);
}

}  // namespace
}  // namespace flashtier
