// Tests for the core module: system assembly and the replay engine.

#include <gtest/gtest.h>

#include <memory>

#include "src/core/flashtier.h"
#include "src/core/replay.h"
#include "src/util/rng.h"

namespace flashtier {
namespace {

TEST(SystemTypeTest, NamesAndClassification) {
  EXPECT_EQ(SystemTypeName(SystemType::kNativeWriteBack), "Native-WB");
  EXPECT_EQ(SystemTypeName(SystemType::kSscRWriteThrough), "SSC-R-WT");
  EXPECT_FALSE(SystemUsesSsc(SystemType::kNativeWriteBack));
  EXPECT_TRUE(SystemUsesSsc(SystemType::kSscWriteBack));
  EXPECT_TRUE(SystemIsWriteBack(SystemType::kSscRWriteBack));
  EXPECT_FALSE(SystemIsWriteBack(SystemType::kSscWriteThrough));
}

TEST(FlashTierSystemTest, AssemblesRequestedComponents) {
  SystemConfig config;
  config.cache_pages = 2048;

  config.type = SystemType::kSscWriteBack;
  FlashTierSystem ssc_wb(config);
  EXPECT_NE(ssc_wb.ssc(), nullptr);
  EXPECT_EQ(ssc_wb.ssd(), nullptr);
  EXPECT_NE(ssc_wb.write_back_manager(), nullptr);
  EXPECT_EQ(ssc_wb.native_manager(), nullptr);

  config.type = SystemType::kNativeWriteBack;
  FlashTierSystem native(config);
  EXPECT_EQ(native.ssc(), nullptr);
  EXPECT_NE(native.ssd(), nullptr);
  EXPECT_NE(native.native_manager(), nullptr);
  EXPECT_GT(native.HostMemoryUsage(), 0u);   // per-block table
  EXPECT_GT(native.DeviceMemoryUsage(), 0u);

  config.type = SystemType::kSscWriteThrough;
  FlashTierSystem ssc_wt(config);
  EXPECT_EQ(ssc_wt.HostMemoryUsage(), 0u);  // WT manager keeps no state
}

TEST(FlashTierSystemTest, SscRUsesSeMergePolicy) {
  SystemConfig config;
  config.cache_pages = 8192;
  config.type = SystemType::kSscRWriteThrough;
  FlashTierSystem system(config);
  ASSERT_NE(system.ssc(), nullptr);
  // SE-Merge allows the log to grow past the 7% SE-Util reserve; drive some
  // traffic and observe it exceed that bound.
  for (uint64_t i = 0; i < 30'000; ++i) {
    ASSERT_EQ(system.manager().Write(i % 6000, i), Status::kOk);
  }
  const uint64_t cap_blocks = 8192 / 64;
  EXPECT_GT(system.ssc()->current_log_blocks(), cap_blocks * 7 / 100);
}

// Each shard gets an even share of the capacity, the remainder on the low
// shards, and its own flash and disk fault streams, in an SSC system and in
// a native one.
TEST(FlashTierSystemTest, ShardsSplitCapacityAndStrideFaultSeeds) {
  SystemConfig config;
  config.cache_pages = 4 * 2048 + 3;
  config.shards = 4;
  config.flash_faults.enabled = true;
  config.flash_faults.seed = 11;
  config.disk_faults.enabled = true;
  config.disk_faults.seed = 23;
  for (const SystemType type : {SystemType::kSscWriteBack, SystemType::kNativeWriteBack}) {
    config.type = type;
    FlashTierSystem system(config);
    ASSERT_EQ(system.shard_count(), 4u);
    uint64_t total = 0;
    for (uint32_t i = 0; i < 4; ++i) {
      const FlashTierSystem::Shard& shard = system.shard(i);
      ASSERT_EQ(shard.ssc != nullptr, SystemUsesSsc(type));
      ASSERT_EQ(shard.ssd != nullptr, !SystemUsesSsc(type));
      const uint64_t pages = shard.ssc != nullptr ? shard.ssc->capacity_pages()
                                                  : shard.ssd->logical_pages() -
                                                        NativeCacheManager::kMetadataRegionPages;
      const FlashDevice& flash = shard.ssc != nullptr ? shard.ssc->device() : shard.ssd->device();
      EXPECT_EQ(pages, i < 3 ? 2049u : 2048u) << SystemTypeName(type) << " shard " << i;
      EXPECT_EQ(flash.fault_plan().seed, ShardSeed(11, i)) << SystemTypeName(type);
      EXPECT_EQ(shard.disk->fault_plan().seed, ShardSeed(23, i)) << SystemTypeName(type);
      total += pages;
    }
    EXPECT_EQ(total, config.cache_pages) << SystemTypeName(type);
  }
}

TEST(ReplayEngineTest, CountsAndClock) {
  SystemConfig config;
  config.type = SystemType::kSscWriteThrough;
  config.cache_pages = 2048;
  FlashTierSystem system(config);
  VectorTrace trace;
  for (int i = 0; i < 100; ++i) {
    trace.Append(i, i % 4 == 0 ? TraceOp::kRead : TraceOp::kWrite);
  }
  ReplayEngine engine(&system);
  const ReplayMetrics m = engine.Run(trace);
  EXPECT_EQ(m.requests, 100u);
  EXPECT_EQ(m.reads, 25u);
  EXPECT_EQ(m.writes, 75u);
  EXPECT_EQ(m.failed_requests, 0u);
  EXPECT_GT(m.elapsed_us, 0u);
  EXPECT_GT(m.Iops(), 0.0);
  EXPECT_GT(m.MeanResponseUs(), 0.0);
}

// The warmup cut is a fraction of the trace, at any shard count.
TEST(ReplayEngineTest, WarmupExcludedFromMeasurement) {
  for (const uint32_t shards : {1u, 4u}) {
    SystemConfig config;
    config.type = SystemType::kSscWriteThrough;
    config.cache_pages = 2048;
    config.shards = shards;
    FlashTierSystem system(config);
    VectorTrace trace;
    for (int i = 0; i < 1000; ++i) {
      trace.Append(i, TraceOp::kWrite);
    }
    ReplayEngine::Options opts;
    opts.warmup_fraction = 0.30;
    opts.threads = shards;
    ReplayEngine engine(&system, opts);
    const ReplayMetrics m = engine.Run(trace);
    EXPECT_EQ(m.warmup_requests, 300u) << shards << " shards";
    EXPECT_EQ(m.requests, 700u) << shards << " shards";
  }
}

TEST(ReplayEngineTest, OracleCatchesInjectedStaleData) {
  // A deliberately broken "cache" that loses writes must be flagged.
  class LossyManager final : public CacheManager {
   public:
    explicit LossyManager(AdmissionPolicy& policy) : CacheManager(policy) {}
    Status Read(Lbn lbn, uint64_t* token) override {
      *token = 0xbad;  // always wrong
      (void)lbn;
      return Status::kOk;
    }
    Status Write(Lbn, uint64_t) override { return Status::kOk; }
    size_t HostMemoryUsage() const override { return 0; }
  };
  SystemConfig config;
  config.type = SystemType::kSscWriteThrough;
  config.cache_pages = 1024;
  FlashTierSystem system(config);
  VectorTrace trace;
  trace.Append(1, TraceOp::kWrite);
  trace.Append(1, TraceOp::kRead);
  // Replay through the real system first: zero stale reads.
  ReplayEngine::Options opts;
  opts.verify = true;
  ReplayEngine good(&system, opts);
  EXPECT_EQ(good.Run(trace).stale_reads, 0u);
  // Then around the lossy manager: its read answers a token the write never
  // produced, and it fails no request, so only the oracle can catch it.
  system.shard(0).manager = std::make_unique<LossyManager>(*system.shard(0).policy);
  ReplayEngine bad(&system, opts);
  const ReplayMetrics m = bad.Run(trace);
  EXPECT_EQ(m.stale_reads, 1u);
  EXPECT_EQ(m.failed_requests, 0u);
}

}  // namespace
}  // namespace flashtier
