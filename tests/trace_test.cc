// Tests for trace sources, file round-trips, synthetic workload generation,
// and the Table 3 / Figure 1 statistics.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <unordered_set>

#include "src/trace/kv_trace.h"
#include "src/trace/trace.h"
#include "src/trace/trace_file.h"
#include "src/trace/trace_stats.h"
#include "src/trace/workload.h"

namespace flashtier {
namespace {

TEST(VectorTraceTest, IterationAndRewind) {
  VectorTrace trace;
  trace.Append(1, TraceOp::kRead);
  trace.Append(2, TraceOp::kWrite);
  TraceRecord r;
  ASSERT_TRUE(trace.Next(&r));
  EXPECT_EQ(r.lbn, 1u);
  EXPECT_EQ(r.op, TraceOp::kRead);
  ASSERT_TRUE(trace.Next(&r));
  EXPECT_EQ(r.lbn, 2u);
  EXPECT_FALSE(trace.Next(&r));
  trace.Rewind();
  ASSERT_TRUE(trace.Next(&r));
  EXPECT_EQ(r.lbn, 1u);
  EXPECT_EQ(trace.size_hint(), 2u);
}

// What TraceFileTest needs to know about each record kind.
template <typename Record>
struct FileKind;

template <>
struct FileKind<TraceRecord> {
  using Other = KvTraceRecord;
  static constexpr const char* kExtension = ".fttr";
  static constexpr long kRecordBytes = 9;
  static constexpr uint8_t kBadOp = 2;
  static uint8_t Op(uint64_t i) { return i % 3 == 0 ? 1 : 0; }
  static TraceRecord Make(uint64_t i, uint8_t op) { return {i * 17, static_cast<TraceOp>(op)}; }
};

template <>
struct FileKind<KvTraceRecord> {
  using Other = TraceRecord;
  static constexpr const char* kExtension = ".ftkv";
  static constexpr long kRecordBytes = 13;
  static constexpr uint8_t kBadOp = 3;
  static uint8_t Op(uint64_t i) { return static_cast<uint8_t>(i % 3); }
  static KvTraceRecord Make(uint64_t i, uint8_t op) {
    return {i * 17, static_cast<KvOp>(op), op == 1 ? static_cast<uint32_t>(64 + i) : 0u};
  }
};

template <typename Record>
class TraceFileTest : public ::testing::Test {
 protected:
  static constexpr long kHeaderBytes = 24;

  void SetUp() override {
    path_ = ::testing::TempDir() + "/flashtier_trace_test" + FileKind<Record>::kExtension;
  }
  void TearDown() override { std::remove(path_.c_str()); }

  // Writes `n` records of kind R to path_, every `bad_every`-th (if any)
  // with an op byte that names no operation.
  template <typename R = Record>
  void Write(uint64_t n, uint64_t bad_every = 0) {
    RecordFileWriter<R> writer;
    ASSERT_EQ(writer.Open(path_), Status::kOk);
    for (uint64_t i = 0; i < n; ++i) {
      const bool bad = bad_every != 0 && i % bad_every == 0;
      const uint8_t op = bad ? FileKind<R>::kBadOp : FileKind<R>::Op(i);
      ASSERT_EQ(writer.Append(FileKind<R>::Make(i, op)), Status::kOk);
    }
    ASSERT_EQ(writer.Close(), Status::kOk);
    ASSERT_EQ(writer.written(), n);
  }

  void FlipByte(long offset) {
    FILE* f = std::fopen(path_.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, offset, SEEK_SET);
    const int byte = std::fgetc(f);
    std::fseek(f, offset, SEEK_SET);
    std::fputc(byte ^ 0xff, f);
    std::fclose(f);
  }

  Status Open() {
    RecordFileReader<Record> reader;
    return reader.Open(path_);
  }

  std::string path_;
};

using RecordKinds = ::testing::Types<TraceRecord, KvTraceRecord>;
TYPED_TEST_SUITE(TraceFileTest, RecordKinds);

TYPED_TEST(TraceFileTest, RoundTripAndRewind) {
  using Kind = FileKind<TypeParam>;
  this->Write(1000);
  RecordFileReader<TypeParam> reader;
  ASSERT_EQ(reader.Open(this->path_), Status::kOk);
  EXPECT_EQ(reader.size_hint(), 1000u);
  TypeParam r;
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(reader.Next(&r));
    EXPECT_EQ(r, Kind::Make(i, Kind::Op(i)));
  }
  EXPECT_FALSE(reader.Next(&r));
  reader.Rewind();
  ASSERT_TRUE(reader.Next(&r));
  EXPECT_EQ(r, Kind::Make(0, Kind::Op(0)));
}

TYPED_TEST(TraceFileTest, DetectsAFlippedRecordByte) {
  this->Write(100);
  ASSERT_EQ(this->Open(), Status::kOk);
  // A key byte of record 50: only the CRC can tell.
  this->FlipByte(this->kHeaderBytes + FileKind<TypeParam>::kRecordBytes * 50 + 3);
  EXPECT_EQ(this->Open(), Status::kCorrupt);
}

TYPED_TEST(TraceFileTest, RejectsWrongMagic) {
  FILE* f = std::fopen(this->path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite("NOTATRACEFILE____________", 1, 25, f);
  std::fclose(f);
  EXPECT_EQ(this->Open(), Status::kCorrupt);
}

TYPED_TEST(TraceFileTest, RejectsATruncatedFile) {
  this->Write(100);
  const long sixty_records = this->kHeaderBytes + FileKind<TypeParam>::kRecordBytes * 60;
  std::filesystem::resize_file(this->path_, sixty_records);
  EXPECT_EQ(this->Open(), Status::kCorrupt);
}

TYPED_TEST(TraceFileTest, RejectsTheOtherKindsFile) {
  this->template Write<typename FileKind<TypeParam>::Other>(100);
  EXPECT_EQ(this->Open(), Status::kCorrupt);
}

TYPED_TEST(TraceFileTest, RejectsRecordsThatNameNoOperation) {
  // CRC-valid: the writer packs whatever op byte it is given.
  this->Write(1000, /*bad_every=*/10);
  EXPECT_EQ(this->Open(), Status::kCorrupt);
}

WorkloadProfile TestProfile() {
  WorkloadProfile p;
  p.name = "test";
  p.range_blocks = 5'000'000;
  p.unique_blocks = 40'000;
  p.total_ops = 300'000;
  p.write_fraction = 0.7;
  p.seed = 99;
  return p;
}

TEST(SyntheticWorkloadTest, DeterministicAcrossInstancesAndRewind) {
  SyntheticWorkload a(TestProfile());
  SyntheticWorkload b(TestProfile());
  TraceRecord ra;
  TraceRecord rb;
  for (int i = 0; i < 20'000; ++i) {
    ASSERT_TRUE(a.Next(&ra));
    ASSERT_TRUE(b.Next(&rb));
    ASSERT_EQ(ra, rb) << "diverged at " << i;
  }
  a.Rewind();
  SyntheticWorkload c(TestProfile());
  TraceRecord rc;
  for (int i = 0; i < 20'000; ++i) {
    ASSERT_TRUE(a.Next(&ra));
    ASSERT_TRUE(c.Next(&rc));
    ASSERT_EQ(ra, rc) << "rewind diverged at " << i;
  }
}

TEST(SyntheticWorkloadTest, ProducesExactlyTotalOps) {
  SyntheticWorkload w(TestProfile());
  TraceRecord r;
  uint64_t n = 0;
  while (w.Next(&r)) {
    ++n;
  }
  EXPECT_EQ(n, TestProfile().total_ops);
}

TEST(SyntheticWorkloadTest, StaysInRangeAndInWorkingSet) {
  SyntheticWorkload w(TestProfile());
  std::unordered_set<Lbn> working_set(w.working_set().begin(), w.working_set().end());
  EXPECT_EQ(working_set.size(), TestProfile().unique_blocks);
  TraceRecord r;
  while (w.Next(&r)) {
    ASSERT_LT(r.lbn, TestProfile().range_blocks);
    ASSERT_TRUE(working_set.count(r.lbn)) << r.lbn;
  }
}

TEST(SyntheticWorkloadTest, MatchesTargetStatistics) {
  SyntheticWorkload w(TestProfile());
  TraceStats stats;
  stats.Consume(w);
  EXPECT_EQ(stats.total_ops(), 300'000u);
  EXPECT_NEAR(stats.write_fraction(), 0.7, 0.02);
  // Most of the working set should be touched (hot Zipf head + cold sweep).
  EXPECT_GT(stats.unique_blocks(), 15'000u);
  EXPECT_LE(stats.unique_blocks(), 40'000u);
}

TEST(SyntheticWorkloadTest, AccessSkewSupportsCaching) {
  // The top 25% most-accessed blocks must absorb the bulk of accesses —
  // the property Section 2 builds the cache sizing on.
  SyntheticWorkload w(TestProfile());
  TraceStats stats;
  stats.Consume(w);
  const double top = stats.MeanAccessesPerBlock(0.25);
  const double all = stats.MeanAccessesPerBlock(1.0);
  EXPECT_GT(top, 2.5 * all);
}

TEST(SyntheticWorkloadTest, WriteHeavyTracesConcentrateWritesOnHotBlocks) {
  // Section 2: writes/block of the top 25% is ~4x the whole-trace average in
  // write-intensive traces.
  WorkloadProfile p = TestProfile();
  p.write_fraction = 0.95;
  SyntheticWorkload w(p);
  TraceStats stats;
  stats.Consume(w);
  EXPECT_GT(stats.MeanWritesPerBlock(0.25), 2.5 * stats.MeanWritesPerBlock(1.0));
}

// Folds the `bytes` low-order bytes of `value` into a 64-bit FNV-1a hash.
uint64_t Fnv1a(uint64_t h, uint64_t value, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    h = (h ^ ((value >> (8 * i)) & 0xff)) * 0x100000001b3ull;
  }
  return h;
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

// The hash of every record a profile generates, each as LBN then op.
uint64_t BlockTraceHash(const WorkloadProfile& profile) {
  SyntheticWorkload w(profile);
  uint64_t h = kFnvBasis;
  TraceRecord r;
  while (w.Next(&r)) {
    h = Fnv1a(Fnv1a(h, r.lbn, 8), static_cast<uint64_t>(r.op), 1);
  }
  return h;
}

// Pins every generated record, so a generator, sampler or RNG change that
// moves a record fails here in milliseconds rather than as moved pins of the
// paper matrix. A deliberate change to the traces updates these constants
// together with the pins it moves.
TEST(SyntheticWorkloadTest, PaperProfilesGenerateThePinnedRecords) {
  EXPECT_EQ(BlockTraceHash(HomesProfile(0.005)), 0x3a1a4e2fb639dfcfull);
  EXPECT_EQ(BlockTraceHash(MailProfile(0.005)), 0x9d65543b0779c847ull);
  EXPECT_EQ(BlockTraceHash(UsrProfile(0.005)), 0xc217d707b81db88eull);
  EXPECT_EQ(BlockTraceHash(ProjProfile(0.005)), 0x0da89c22905bc91cull);
}

TEST(KvZipfWorkloadTest, GeneratesThePinnedRecords) {
  KvZipfWorkload w(KvWorkloadProfile{});  // 20 k keys, 200 k operations
  uint64_t h = kFnvBasis;
  KvTraceRecord r;
  while (w.Next(&r)) {
    h = Fnv1a(Fnv1a(Fnv1a(h, r.key, 8), static_cast<uint64_t>(r.op), 1), r.size, 4);
  }
  EXPECT_EQ(h, 0x8a1b8e6bf04a565full);
}

TEST(TraceStatsTest, RegionDensitiesSparse) {
  SyntheticWorkload w(TestProfile());
  TraceStats stats;
  stats.Consume(w);
  const auto densities = stats.RegionDensities(0.25);
  ASSERT_FALSE(densities.empty());
  // Sorted ascending.
  for (size_t i = 1; i < densities.size(); ++i) {
    ASSERT_LE(densities[i - 1], densities[i]);
  }
  // Figure 1's shape: a large share of regions only have a small fraction of
  // their blocks referenced.
  EXPECT_GT(stats.FractionOfRegionsBelow(0.25, 1.0), 0.3);
}

TEST(TraceStatsTest, CountsAndRange) {
  TraceStats stats;
  stats.Add({100, TraceOp::kWrite});
  stats.Add({100, TraceOp::kRead});
  stats.Add({5000, TraceOp::kWrite});
  EXPECT_EQ(stats.total_ops(), 3u);
  EXPECT_EQ(stats.writes(), 2u);
  EXPECT_EQ(stats.unique_blocks(), 2u);
  EXPECT_EQ(stats.range_bytes(), 5001u * 4096u);
  EXPECT_DOUBLE_EQ(stats.write_fraction(), 2.0 / 3.0);
}

TEST(TraceStatsTest, RerefIntervalHistogramBucketsByPowerOfTwo) {
  TraceStats stats;
  // Access pattern: block 1 at records 1, 2, 8; block 2 at record 4 only.
  stats.Add({1, TraceOp::kRead});  // record 1 (first touch: no interval)
  stats.Add({1, TraceOp::kRead});  // record 2: interval 1 -> bucket 0
  stats.Add({9, TraceOp::kRead});  // record 3 (first touch)
  stats.Add({2, TraceOp::kRead});  // record 4 (first touch)
  stats.Add({7, TraceOp::kRead});  // record 5
  stats.Add({8, TraceOp::kRead});  // record 6
  stats.Add({6, TraceOp::kRead});  // record 7
  stats.Add({1, TraceOp::kRead});  // record 8: interval 6 -> bucket 2 ([4,8))
  EXPECT_EQ(stats.reref_accesses(), 2u);
  const auto& hist = stats.RerefIntervalHistogram();
  ASSERT_GE(hist.size(), 3u);
  EXPECT_EQ(hist[0], 1u);  // interval 1
  EXPECT_EQ(hist[1], 0u);
  EXPECT_EQ(hist[2], 1u);  // interval 6
  // Blocks 9, 2, 7, 8, 6 were touched exactly once.
  EXPECT_EQ(stats.SingleAccessKeys(), 5u);
  // Histogram mass + first touches account for every record.
  EXPECT_EQ(stats.reref_accesses() + stats.unique_blocks(), stats.total_ops());
}

TEST(TraceStatsTest, ColdTracesShowSingleAccessMass) {
  // The usr-style profile drives the admission-policy story: a substantial
  // share of its blocks are touched exactly once, so admitting every fill
  // buys flash writes that can never pay back.
  SyntheticWorkload w(TestProfile());
  TraceStats stats;
  stats.Consume(w);
  EXPECT_GT(stats.SingleAccessKeys(), 0u);
  EXPECT_GT(stats.reref_accesses(), 0u);
  uint64_t mass = 0;
  for (uint64_t bucket : stats.RerefIntervalHistogram()) {
    mass += bucket;
  }
  EXPECT_EQ(mass, stats.reref_accesses());
}

TEST(WorkloadProfilesTest, PaperScaleMatchesTable3) {
  // At scale 1.0 the profiles carry the paper's replayed sizes.
  const WorkloadProfile homes = HomesProfile(1.0);
  EXPECT_EQ(homes.total_ops, 17'836'701u);
  EXPECT_EQ(homes.unique_blocks, 1'684'407u);
  EXPECT_NEAR(homes.write_fraction, 0.959, 1e-9);
  EXPECT_EQ(homes.RangeBytes(), 532ull << 30);

  const WorkloadProfile mail = MailProfile(1.0);
  EXPECT_EQ(mail.total_ops, 20'000'000u);  // replayed prefix, Section 6.1
  EXPECT_NEAR(mail.write_fraction, 0.885, 1e-9);

  const WorkloadProfile usr = UsrProfile(1.0);
  EXPECT_NEAR(usr.write_fraction, 0.059, 1e-9);
  const WorkloadProfile proj = ProjProfile(1.0);
  EXPECT_NEAR(proj.write_fraction, 0.142, 1e-9);
  EXPECT_EQ(proj.RangeBytes(), 816ull << 30);
}

TEST(WorkloadProfilesTest, ScalingIsLinear) {
  const WorkloadProfile full = HomesProfile(1.0);
  const WorkloadProfile tenth = HomesProfile(0.1);
  EXPECT_NEAR(static_cast<double>(tenth.total_ops),
              static_cast<double>(full.total_ops) * 0.1, 1.0);
  EXPECT_NEAR(static_cast<double>(tenth.unique_blocks),
              static_cast<double>(full.unique_blocks) * 0.1, 1.0);
  EXPECT_EQ(tenth.write_fraction, full.write_fraction);
}

}  // namespace
}  // namespace flashtier
