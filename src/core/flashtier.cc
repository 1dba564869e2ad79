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

  // Split capacity evenly; the first `cache_pages % shards` shards absorb the
  // remainder so no page of the configured capacity is dropped.
  const uint64_t base_pages = config.cache_pages / shard_count;
  const uint64_t extra = config.cache_pages % shard_count;

  shards_.reserve(shard_count);
  for (uint32_t i = 0; i < shard_count; ++i) {
    auto shard = std::make_unique<Shard>();
    const uint64_t pages = base_pages + (i < extra ? 1 : 0);
    shard->disk = std::make_unique<DiskModel>(config.disk, &shard->clock);
    if (config.disk_faults.enabled) {
      DiskFaultPlan plan = config.disk_faults;
      plan.seed = ShardSeed(config.disk_faults.seed, i);
      shard->disk->set_fault_plan(plan);
    }
    shard->disk->set_retry_policy(config.disk_retry);
    // Each shard owns an independent policy instance driven only from its
    // own sequential operation stream (and its own virtual clock), so
    // admission decisions stay bit-identical across replay thread counts.
    shard->policy = MakeAdmissionPolicy(
        ShardPolicyConfig(config.admission, shard_count, i), &shard->clock);

    if (SystemUsesSsc(config.type)) {
      SscConfig ssc_config;
      ssc_config.capacity_pages = pages;
      ssc_config.policy = (config.type == SystemType::kSscRWriteThrough ||
                           config.type == SystemType::kSscRWriteBack)
                              ? EvictionPolicy::kSeMerge
                              : EvictionPolicy::kSeUtil;
      ssc_config.mode = config.consistency;
      ssc_config.timings = config.timings;
      if (config.flash_faults.enabled) {
        ssc_config.fault_plan = config.flash_faults;
        ssc_config.fault_plan.seed = ShardSeed(config.flash_faults.seed, i);
      }
      ssc_config.wear_level_interval_writes = config.wear_level_interval_writes;
      ssc_config.wear_level_max_diff = config.wear_level_max_diff;
      ssc_config.patrol_interval_writes = config.patrol_interval_writes;
      if (config.log_region_pages > 0) {
        // A total region budget, split like capacity; every shard gets at
        // least one page so a tiny budget still leaves each log usable.
        ssc_config.log_region_pages =
            std::max<uint64_t>(1, config.log_region_pages / shard_count);
      }
      if (config.checkpoint_segment_entries > 0) {
        ssc_config.checkpoint_segment_entries = config.checkpoint_segment_entries;
      }
      shard->ssc = std::make_unique<SscDevice>(ssc_config, &shard->clock);

      if (SystemIsWriteBack(config.type)) {
        WriteBackManager::Options opts;
        opts.dirty_threshold = config.dirty_threshold;
        opts.admission = shard->policy.get();
        opts.min_usable_capacity_pct = config.min_usable_capacity_pct;
        auto manager =
            std::make_unique<WriteBackManager>(shard->ssc.get(), shard->disk.get(), opts);
        shard->wb_manager = manager.get();
        shard->manager = std::move(manager);
      } else {
        shard->manager = std::make_unique<WriteThroughManager>(
            shard->ssc.get(), shard->disk.get(), shard->policy.get());
      }
    } else {
      SsdFtl::Options ssd_opts;
      ssd_opts.timings = config.timings;
      if (config.flash_faults.enabled) {
        ssd_opts.fault_plan = config.flash_faults;
        ssd_opts.fault_plan.seed = ShardSeed(config.flash_faults.seed, i);
      }
      ssd_opts.wear_level_interval_writes = config.wear_level_interval_writes;
      ssd_opts.wear_level_max_diff = config.wear_level_max_diff;
      shard->ssd = std::make_unique<SsdFtl>(
          pages + NativeCacheManager::kMetadataRegionPages, &shard->clock, ssd_opts);
      NativeCacheManager::Options opts;
      opts.mode = SystemIsWriteBack(config.type) ? NativeCacheManager::Mode::kWriteBack
                                                 : NativeCacheManager::Mode::kWriteThrough;
      opts.persist_metadata = config.native_persist_metadata;
      opts.dirty_threshold = config.dirty_threshold;
      opts.admission = shard->policy.get();
      auto manager = std::make_unique<NativeCacheManager>(shard->ssd.get(), shard->disk.get(),
                                                          pages, opts);
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
  return MergeShards<PolicyStats>(shards_, [](const Shard& s) {
    return s.policy != nullptr ? &s.policy->stats() : nullptr;
  });
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
