// FlashTier system facade: assembles a cache manager, a caching device (SSC
// or SSD), and a disk into one simulated storage system, in any of the
// configurations the paper evaluates.
//
// The system can be sharded (SystemConfig::shards > 1) to model the channel/
// plane parallelism of real flash: the unified sparse address space is
// LBN-hash partitioned at 256 KB logical-block grain (ShardRouter), and each
// shard is a complete vertical slice — its own virtual clock, disk queue,
// caching device (with its own sparse maps, block allocator, log region,
// group-commit state and silent-eviction GC) and cache manager. Shards share
// no mutable state, so they can be driven by concurrent replay threads and
// still behave bit-identically to a sequential walk of the same partition.
// Callers address shards transparently through Read()/Write(); per-component
// accessors default to shard 0 for single-shard compatibility.

#ifndef FLASHTIER_CORE_FLASHTIER_H_
#define FLASHTIER_CORE_FLASHTIER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/cache/cache_manager.h"
#include "src/cache/native.h"
#include "src/cache/write_back.h"
#include "src/cache/write_through.h"
#include "src/disk/disk_model.h"
#include "src/policy/policy_factory.h"
#include "src/ssc/shard.h"
#include "src/ssc/ssc_device.h"
#include "src/ssd/ssd_ftl.h"

namespace flashtier {

// The five systems of Figure 3 (plus a native write-through for tests).
enum class SystemType {
  kNativeWriteBack,   // FlashCache manager + SSD ("Native")
  kNativeWriteThrough,
  kSscWriteThrough,   // FlashTier, SE-Util SSC
  kSscWriteBack,
  kSscRWriteThrough,  // FlashTier, SE-Merge SSC-R
  kSscRWriteBack,
};

std::string SystemTypeName(SystemType type);
bool SystemUsesSsc(SystemType type);
bool SystemIsWriteBack(SystemType type);

struct SystemConfig {
  SystemType type = SystemType::kSscWriteBack;
  uint64_t cache_pages = 0;  // 4 KB blocks of cache capacity (total, all shards)
  ConsistencyMode consistency = ConsistencyMode::kFull;
  // Native-D metadata persistence (write-back native only).
  bool native_persist_metadata = true;
  // Independent channel shards; 1 keeps the classic monolithic system.
  uint32_t shards = 1;
  // Admission control (DESIGN.md §5f). Capacity-like knobs are totals and
  // are split across shards; each shard owns an independent deterministic
  // policy instance. The default, admit-all, admits every insertion.
  PolicyConfig admission;
  // Fault injection on the disk tier (DESIGN.md §5i) and on the flash medium
  // (§5d/§5l), both disabled by default. Each shard's disk and device draw
  // an independent stream seeded by ShardSeed, so fault draws depend only on
  // a shard's own operation order and every counter stays bit-identical
  // across replay thread counts.
  DiskFaultPlan disk_faults;
  FaultPlan flash_faults;
  // Endurance defenses (DESIGN.md §5l), forwarded to every shard's device:
  // static wear leveling and patrol scrubbing on a deterministic host-write
  // cadence (0 = off).
  uint32_t wear_level_interval_writes = 0;
  uint32_t patrol_interval_writes = 0;
};

// Owns every component of one simulated storage system.
class FlashTierSystem {
 public:
  // One shard: a complete vertical slice modeling an independent channel.
  struct Shard {
    SimClock clock;
    std::unique_ptr<DiskModel> disk;
    std::unique_ptr<SscDevice> ssc;  // null unless the config uses an SSC
    std::unique_ptr<SsdFtl> ssd;    // null unless the config uses an SSD
    std::unique_ptr<AdmissionPolicy> policy;
    std::unique_ptr<CacheManager> manager;
    WriteBackManager* wb_manager = nullptr;
    NativeCacheManager* native_manager = nullptr;
  };

  explicit FlashTierSystem(const SystemConfig& config);

  // ---- Sharding ----

  uint32_t shard_count() const { return static_cast<uint32_t>(shards_.size()); }
  Shard& shard(size_t i) { return *shards_[i]; }
  const Shard& shard(size_t i) const { return *shards_[i]; }
  const ShardRouter& router() const { return router_; }
  uint32_t ShardOf(Lbn lbn) const { return router_.ShardOf(lbn); }

  // Transparent shard-routed application I/O.
  Status Read(Lbn lbn, uint64_t* token) {
    return shards_[ShardOf(lbn)]->manager->Read(lbn, token);
  }
  Status Write(Lbn lbn, uint64_t token) {
    return shards_[ShardOf(lbn)]->manager->Write(lbn, token);
  }

  // ---- Shard-0 component access (the whole system when shards == 1) ----

  CacheManager& manager() { return *shards_[0]->manager; }
  SimClock& clock() { return shards_[0]->clock; }
  DiskModel& disk() { return *shards_[0]->disk; }

  // Null unless the configuration uses that device.
  SscDevice* ssc() { return shards_[0]->ssc.get(); }
  SsdFtl* ssd() { return shards_[0]->ssd.get(); }
  WriteBackManager* write_back_manager() { return shards_[0]->wb_manager; }
  NativeCacheManager* native_manager() { return shards_[0]->native_manager; }
  AdmissionPolicy* admission_policy() { return shards_[0]->policy.get(); }

  const char* admission_name() const { return AdmissionKindName(config_.admission.kind); }

  const SystemConfig& config() const { return config_; }

  // ---- Cross-shard aggregates ----

  ManagerStats AggregateManagerStats() const;
  DiskStats AggregateDiskStats() const;
  FtlStats AggregateFtlStats() const;
  FlashStats AggregateFlashStats() const;
  FaultStats AggregateFaultStats() const;
  // Zero-initialized when no shard has an SSC.
  PersistStats AggregatePersistStats() const;
  PolicyStats AggregatePolicyStats() const;

  // Share of the flash medium (all shards) permanently lost to block
  // retirement, in percent.
  double RetiredCapacityPct() const;

  // Total device-resident mapping memory (Table 4 "Device" column).
  size_t DeviceMemoryUsage() const;
  // Host-resident cache-manager memory (Table 4 "Host" column).
  size_t HostMemoryUsage() const;

 private:
  SystemConfig config_;
  ShardRouter router_;
  // Heap-allocated so component pointers into a shard (notably its clock)
  // stay stable; shards are never moved after construction.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace flashtier

#endif  // FLASHTIER_CORE_FLASHTIER_H_
