#include "src/core/flashtier.h"

#include <algorithm>

#include "src/util/rng.h"

namespace flashtier {

std::string SystemTypeName(SystemType type) {
  switch (type) {
    case SystemType::kNativeWriteBack:
      return "Native-WB";
    case SystemType::kNativeWriteThrough:
      return "Native-WT";
    case SystemType::kSscWriteThrough:
      return "SSC-WT";
    case SystemType::kSscWriteBack:
      return "SSC-WB";
    case SystemType::kSscRWriteThrough:
      return "SSC-R-WT";
    case SystemType::kSscRWriteBack:
      return "SSC-R-WB";
  }
  return "unknown";
}

bool SystemUsesSsc(SystemType type) {
  return type != SystemType::kNativeWriteBack && type != SystemType::kNativeWriteThrough;
}

bool SystemIsWriteBack(SystemType type) {
  return type == SystemType::kNativeWriteBack || type == SystemType::kSscWriteBack ||
         type == SystemType::kSscRWriteBack;
}

FlashTierSystem::FlashTierSystem(const SystemConfig& config) : config_(config) {
  const uint32_t shard_count = std::max<uint32_t>(1, config.shards);
  config_.shards = shard_count;
  router_.shards = shard_count;

  // The whole caching device; each shard gets its ShardSscConfig slice (an
  // SSD takes the capacity and the engine settings).
  SscConfig device;
  device.capacity_pages = config.cache_pages;
  device.policy = (config.type == SystemType::kSscRWriteThrough ||
                   config.type == SystemType::kSscRWriteBack)
                      ? EvictionPolicy::kSeMerge
                      : EvictionPolicy::kSeUtil;
  device.mode = config.consistency;
  if (config.flash_faults.enabled) {
    device.fault_plan = config.flash_faults;
  }
  device.wear_level_interval_writes = config.wear_level_interval_writes;
  device.patrol_interval_writes = config.patrol_interval_writes;

  shards_.reserve(shard_count);
  for (uint32_t i = 0; i < shard_count; ++i) {
    auto shard = std::make_unique<Shard>();
    const SscConfig slice = ShardSscConfig(device, shard_count, i);
    shard->disk = std::make_unique<DiskModel>(&shard->clock);
    if (config.disk_faults.enabled) {
      DiskFaultPlan plan = config.disk_faults;
      plan.seed = ShardSeed(config.disk_faults.seed, i);
      shard->disk->set_fault_plan(plan);
    }
    // Each shard owns an independent policy instance driven only from its
    // own sequential operation stream (and its own virtual clock), so
    // admission decisions stay bit-identical across replay thread counts.
    shard->policy = MakeAdmissionPolicy(config.admission, shard_count, i, &shard->clock);

    if (SystemUsesSsc(config.type)) {
      shard->ssc = std::make_unique<SscDevice>(slice, &shard->clock);
      if (SystemIsWriteBack(config.type)) {
        auto manager =
            std::make_unique<WriteBackManager>(shard->ssc.get(), shard->disk.get(), *shard->policy);
        shard->wb_manager = manager.get();
        shard->manager = std::move(manager);
      } else {
        shard->manager = std::make_unique<WriteThroughManager>(
            shard->ssc.get(), shard->disk.get(), *shard->policy);
      }
    } else {
      shard->ssd = std::make_unique<SsdFtl>(
          slice.capacity_pages + NativeCacheManager::kMetadataRegionPages, &shard->clock, slice);
      NativeCacheManager::Options opts;
      opts.mode = SystemIsWriteBack(config.type) ? NativeCacheManager::Mode::kWriteBack
                                                 : NativeCacheManager::Mode::kWriteThrough;
      opts.persist_metadata = config.native_persist_metadata;
      auto manager = std::make_unique<NativeCacheManager>(
          shard->ssd.get(), shard->disk.get(), slice.capacity_pages, *shard->policy, opts);
      shard->native_manager = manager.get();
      shard->manager = std::move(manager);
    }
    shards_.push_back(std::move(shard));
  }
}

ManagerStats FlashTierSystem::AggregateManagerStats() const {
  return MergeShards<ManagerStats>(shards_, [](const Shard& s) { return &s.manager->stats(); });
}

DiskStats FlashTierSystem::AggregateDiskStats() const {
  return MergeShards<DiskStats>(shards_, [](const Shard& s) { return &s.disk->stats(); });
}

FtlStats FlashTierSystem::AggregateFtlStats() const {
  return MergeShards<FtlStats>(shards_, [](const Shard& s) {
    return s.ssc != nullptr ? &s.ssc->ftl_stats()
                            : (s.ssd != nullptr ? &s.ssd->ftl_stats() : nullptr);
  });
}

FlashStats FlashTierSystem::AggregateFlashStats() const {
  return MergeShards<FlashStats>(shards_, [](const Shard& s) {
    return s.ssc != nullptr ? &s.ssc->flash_stats()
                            : (s.ssd != nullptr ? &s.ssd->flash_stats() : nullptr);
  });
}

FaultStats FlashTierSystem::AggregateFaultStats() const {
  return MergeShards<FaultStats>(shards_, [](const Shard& s) {
    return s.ssc != nullptr ? &s.ssc->device().fault_stats()
                            : (s.ssd != nullptr ? &s.ssd->device().fault_stats() : nullptr);
  });
}

PolicyStats FlashTierSystem::AggregatePolicyStats() const {
  return MergeShards<PolicyStats>(shards_, [](const Shard& s) { return &s.policy->stats(); });
}

PersistStats FlashTierSystem::AggregatePersistStats() const {
  return MergeShards<PersistStats>(shards_, [](const Shard& s) {
    return s.ssc != nullptr ? &s.ssc->persist_stats() : nullptr;
  });
}

double FlashTierSystem::RetiredCapacityPct() const {
  uint64_t retired = 0;
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    if (shard->ssc != nullptr) {
      retired += shard->ssc->retired_block_count();
      total += shard->ssc->device().geometry().TotalBlocks();
    } else if (shard->ssd != nullptr) {
      retired += shard->ssd->ftl_stats().retired_blocks;
      total += shard->ssd->device().geometry().TotalBlocks();
    }
  }
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(retired) / static_cast<double>(total);
}

size_t FlashTierSystem::DeviceMemoryUsage() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->ssc != nullptr ? shard->ssc->DeviceMemoryUsage()
                                   : shard->ssd->DeviceMemoryUsage();
  }
  return total;
}

size_t FlashTierSystem::HostMemoryUsage() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->manager->HostMemoryUsage();
  }
  return total;
}

}  // namespace flashtier
