#include "src/check/invariant_checker.h"

#include <algorithm>
#include <bit>
#include <cstdarg>
#include <cstdio>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/cache/write_back.h"
#include "src/kv/kv_cache.h"
#include "src/policy/admission_policy.h"
#include "src/ssc/persist.h"
#include "src/ssc/shard.h"
#include "src/ssc/ssc_device.h"

namespace flashtier {

std::string Fmt(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list copy;
  va_copy(copy, args);
  const int needed = vsnprintf(nullptr, 0, format, copy);
  va_end(copy);
  std::string out(needed > 0 ? static_cast<size_t>(needed) : 0, '\0');
  if (needed > 0) {
    vsnprintf(out.data(), out.size() + 1, format, args);
  }
  va_end(args);
  return out;
}

void CheckReport::Add(std::string invariant, std::string detail) {
  ++violation_count;
  if (violations.size() < kMaxRecorded) {
    violations.push_back({std::move(invariant), std::move(detail)});
  }
}

void CheckReport::Merge(CheckReport other) {
  checks_run += other.checks_run;
  violation_count += other.violation_count;
  for (InvariantViolation& v : other.violations) {
    if (violations.size() >= kMaxRecorded) {
      break;
    }
    violations.push_back(std::move(v));
  }
}

std::string CheckReport::ToString() const {
  std::string out = Fmt("%llu checks, %llu violations", (unsigned long long)checks_run,
                        (unsigned long long)violation_count);
  for (const InvariantViolation& v : violations) {
    out += "\n  [";
    out += v.invariant;
    out += "] ";
    out += v.detail;
  }
  if (violation_count > violations.size()) {
    out += Fmt("\n  ... %llu more not recorded",
               (unsigned long long)(violation_count - violations.size()));
  }
  return out;
}

CheckReport InvariantChecker::CheckPersistence(const PersistenceManager& pm) {
  CheckReport report;

  // LSN monotonicity: the durable log must be strictly increasing (records
  // reach the log in NextLsn order and are never reordered by a flush).
  uint64_t prev = 0;
  bool first = true;
  for (const LogRecord& r : pm.durable_log_) {
    ++report.checks_run;
    if (!first && r.lsn <= prev) {
      report.Add("persist.lsn-monotone",
                 Fmt("durable record lsn %llu follows %llu", (unsigned long long)r.lsn,
                     (unsigned long long)prev));
    }
    // Checkpoint coverage: the log is truncated at every checkpoint, so any
    // surviving record must postdate the checkpoint LSN.
    ++report.checks_run;
    if (r.lsn <= pm.checkpoint_lsn_) {
      report.Add("persist.checkpoint-coverage",
                 Fmt("durable record lsn %llu is covered by checkpoint lsn %llu",
                     (unsigned long long)r.lsn, (unsigned long long)pm.checkpoint_lsn_));
    }
    prev = r.lsn;
    first = false;
  }

  // Buffered records continue the durable sequence.
  for (const LogRecord& r : pm.buffer_) {
    ++report.checks_run;
    if (!first && r.lsn <= prev) {
      report.Add("persist.lsn-monotone",
                 Fmt("buffered record lsn %llu follows %llu", (unsigned long long)r.lsn,
                     (unsigned long long)prev));
    }
    prev = r.lsn;
    first = false;
  }

  ++report.checks_run;
  if (!first && prev >= pm.next_lsn_) {
    report.Add("persist.lsn-allocation",
               Fmt("record lsn %llu >= next_lsn %llu", (unsigned long long)prev,
                   (unsigned long long)pm.next_lsn_));
  }
  ++report.checks_run;
  if (pm.checkpoint_lsn_ >= pm.next_lsn_) {
    report.Add("persist.lsn-allocation",
               Fmt("checkpoint lsn %llu >= next_lsn %llu",
                   (unsigned long long)pm.checkpoint_lsn_, (unsigned long long)pm.next_lsn_));
  }

  // Log-region capacity: the durable log may never exceed the configured
  // region — backpressure and forced checkpoints exist precisely to uphold
  // this bound, so a breach means an append slipped past admission.
  if (pm.options_.log_region_pages > 0) {
    ++report.checks_run;
    if (pm.DurableLogPages() > pm.options_.log_region_pages) {
      report.Add("persist.log-region",
                 Fmt("durable log occupies %llu pages, region holds %llu",
                     (unsigned long long)pm.DurableLogPages(),
                     (unsigned long long)pm.options_.log_region_pages));
    }
  }
  return report;
}

CheckReport InvariantChecker::CheckSscOnly(const SscDevice& ssc) {
  CheckReport report;
  const FlashDevice& device = *ssc.device_;
  const FlashGeometry& g = device.geometry();
  const uint32_t ppb = g.pages_per_block;
  const uint64_t total_blocks = g.TotalBlocks();

  // Block classification: every erase block must be in exactly one of
  // {allocator-free, log, data, dead, retired}. Build the sets up front.
  enum : uint8_t { kUnknown = 0, kFree, kLog, kData, kDead, kRetired };
  static const char* const kClassName[] = {"unclassified", "free",    "log",
                                           "data",         "dead",    "retired"};
  std::vector<uint8_t> cls(total_blocks, kUnknown);
  auto classify = [&](PhysBlock b, uint8_t c) {
    ++report.checks_run;
    if (b >= total_blocks) {
      report.Add("block.range", Fmt("%s block %llu out of range", kClassName[c],
                                    (unsigned long long)b));
      return;
    }
    if (cls[b] != kUnknown) {
      report.Add("block.partition", Fmt("block %llu is both %s and %s", (unsigned long long)b,
                                        kClassName[cls[b]], kClassName[c]));
      return;
    }
    cls[b] = c;
  };
  uint64_t retired_count = 0;
  ssc.allocator_->ForEachFree([&](PhysBlock b) { classify(b, kFree); });
  ssc.allocator_->ForEachRetired([&](PhysBlock b) {
    ++retired_count;
    classify(b, kRetired);
  });
  for (PhysBlock b : ssc.log_blocks_) {
    classify(b, kLog);
  }
  ssc.block_map_.ForEach(
      [&](uint64_t, const SscDevice::BlockEntry& e) { classify(e.phys, kData); });
  for (PhysBlock b : ssc.dead_blocks_) {
    classify(b, kDead);
  }
  for (PhysBlock b = 0; b < total_blocks; ++b) {
    ++report.checks_run;
    if (cls[b] == kUnknown) {
      report.Add("block.partition", Fmt("block %llu belongs to no category (free/log/data/dead)",
                                        (unsigned long long)b));
    }
    // A free block must be fully erased or the next ProgramPage on it fails.
    if (cls[b] == kFree) {
      ++report.checks_run;
      if (!device.BlockErased(b)) {
        report.Add("allocator.free-erased",
                   Fmt("free block %llu has write pointer %u", (unsigned long long)b,
                       device.write_pointer(b)));
      }
      // Erase resets the read-disturb counter and free pages refuse reads, so
      // a free block carrying disturb exposure means an erase skipped the
      // reset (the block would enter service pre-aged).
      ++report.checks_run;
      if (device.ReadsSinceErase(b) != 0) {
        report.Add("endurance.disturb-reset",
                   Fmt("free block %llu carries %llu reads since erase", (unsigned long long)b,
                       (unsigned long long)device.ReadsSinceErase(b)));
      }
    }
    // A bad block must be retired: handing it back out would lose every
    // write sent to it. (flashcheck --break-retry deliberately violates this
    // to prove the audit notices.)
    ++report.checks_run;
    if (device.BlockBad(b) && cls[b] != kRetired) {
      report.Add("endurance.bad-not-retired",
                 Fmt("bad block %llu is classified %s, not retired", (unsigned long long)b,
                     kClassName[cls[b]]));
    }
    // Retirement is for failed media only: a healthy block parked in the
    // retired set would silently shrink the cache.
    if (cls[b] == kRetired) {
      ++report.checks_run;
      if (!device.BlockBad(b)) {
        report.Add("allocator.retired-bad",
                   Fmt("retired block %llu is not marked bad by the device",
                       (unsigned long long)b));
      }
    }
  }

  // Page-level forward map vs medium, OOB reverse map, and log contents.
  std::unordered_map<PhysBlock, uint64_t> log_refs;  // block -> referenced offsets
  uint64_t page_dirty = 0;
  ssc.page_map_.ForEach([&](Lbn lbn, uint64_t packed) {
    const Ppn ppn = SscDevice::PackedPpn(packed);
    const bool dirty = SscDevice::PackedDirty(packed);
    if (dirty) {
      ++page_dirty;
    }
    ++report.checks_run;
    if (ppn >= g.TotalPages()) {
      report.Add("page-map.range", Fmt("lbn %llu maps to ppn %llu out of range",
                                       (unsigned long long)lbn, (unsigned long long)ppn));
      return;
    }
    ++report.checks_run;
    if (device.page_state(ppn) != PageState::kValid) {
      report.Add("page-map.medium", Fmt("lbn %llu maps to non-valid ppn %llu",
                                        (unsigned long long)lbn, (unsigned long long)ppn));
    }
    ++report.checks_run;
    if (device.oob(ppn).lbn != lbn) {
      report.Add("page-map.oob-lbn",
                 Fmt("lbn %llu maps to ppn %llu whose OOB says lbn %llu", (unsigned long long)lbn,
                     (unsigned long long)ppn, (unsigned long long)device.oob(ppn).lbn));
    }
    // Clean-ing only ever clears the in-RAM dirty bit, so a map-dirty page
    // must have been programmed dirty (OOB flag bit 0).
    ++report.checks_run;
    if (dirty && (device.oob(ppn).flags & 1u) == 0) {
      report.Add("page-map.oob-dirty", Fmt("lbn %llu is map-dirty but was programmed clean",
                                           (unsigned long long)lbn));
    }
    const PhysBlock b = g.BlockOf(ppn);
    ++report.checks_run;
    if (b < total_blocks && cls[b] != kLog) {
      report.Add("page-map.log-residence",
                 Fmt("lbn %llu lives in %s block %llu (page-mapped data must stay in log blocks)",
                     (unsigned long long)lbn, kClassName[cls[b]], (unsigned long long)b));
    }
    const auto it = ssc.log_contents_.find(b);
    const uint32_t off = g.PageOf(ppn);
    ++report.checks_run;
    if (it == ssc.log_contents_.end() || off >= it->second.size() || it->second[off] != lbn) {
      report.Add("page-map.log-contents",
                 Fmt("lbn %llu at ppn %llu disagrees with the log-contents reverse map",
                     (unsigned long long)lbn, (unsigned long long)ppn));
    }
    // A page-mapped lbn supersedes any block-level copy: the block entry's
    // presence bit for this offset must be clear or reads become ambiguous.
    if (const SscDevice::BlockEntry* e = ssc.block_map_.Find(lbn / ppb); e != nullptr) {
      ++report.checks_run;
      if ((e->present_bits >> (lbn % ppb)) & 1u) {
        report.Add("page-map.block-shadow",
                   Fmt("lbn %llu is both page-mapped and present at block level",
                       (unsigned long long)lbn));
      }
    }
    log_refs[b] |= uint64_t{1} << off;
  });

  // Block-level forward map vs medium, reverse map and bitmaps.
  uint64_t block_present = 0;
  uint64_t block_dirty = 0;
  ssc.block_map_.ForEach([&](uint64_t logical, const SscDevice::BlockEntry& e) {
    block_present += static_cast<uint64_t>(std::popcount(e.present_bits));
    block_dirty += static_cast<uint64_t>(std::popcount(e.dirty_bits));
    ++report.checks_run;
    if (e.phys >= total_blocks) {
      report.Add("block-map.range", Fmt("logical block %llu maps to phys %llu out of range",
                                        (unsigned long long)logical, (unsigned long long)e.phys));
      return;
    }
    ++report.checks_run;
    if ((e.dirty_bits & ~e.present_bits) != 0) {
      report.Add("block-map.dirty-subset",
                 Fmt("logical block %llu has dirty bits %llx outside present bits %llx",
                     (unsigned long long)logical, (unsigned long long)e.dirty_bits,
                     (unsigned long long)e.present_bits));
    }
    ++report.checks_run;
    if (ssc.phys_to_logical_[e.phys] != logical) {
      report.Add("block-map.reverse",
                 Fmt("phys_to_logical[%llu] = %llu, expected logical %llu",
                     (unsigned long long)e.phys, (unsigned long long)ssc.phys_to_logical_[e.phys],
                     (unsigned long long)logical));
    }
    // Valid-page accounting: merges install exactly the present pages.
    ++report.checks_run;
    if (device.valid_pages(e.phys) != static_cast<uint32_t>(std::popcount(e.present_bits))) {
      report.Add("block-map.valid-count",
                 Fmt("data block %llu has %u valid pages on medium, %d present in map",
                     (unsigned long long)e.phys, device.valid_pages(e.phys),
                     std::popcount(e.present_bits)));
    }
    for (uint32_t off = 0; off < ppb; ++off) {
      if (((e.present_bits >> off) & 1u) == 0) {
        continue;
      }
      const Ppn ppn = g.FirstPpnOf(e.phys) + off;
      ++report.checks_run;
      if (device.page_state(ppn) != PageState::kValid) {
        report.Add("block-map.medium",
                   Fmt("logical block %llu offset %u present but ppn %llu not valid",
                       (unsigned long long)logical, off, (unsigned long long)ppn));
        continue;
      }
      ++report.checks_run;
      if (device.oob(ppn).lbn != logical * ppb + off) {
        report.Add("block-map.oob-lbn",
                   Fmt("logical block %llu offset %u: OOB says lbn %llu",
                       (unsigned long long)logical, off, (unsigned long long)device.oob(ppn).lbn));
      }
    }
  });

  // Reverse map entries must point back at live block-map entries.
  for (PhysBlock b = 0; b < total_blocks; ++b) {
    const Lbn logical = ssc.phys_to_logical_[b];
    if (logical == kInvalidLbn) {
      continue;
    }
    const SscDevice::BlockEntry* e = ssc.block_map_.Find(logical);
    ++report.checks_run;
    if (e == nullptr || e->phys != b) {
      report.Add("block-map.reverse-stale",
                 Fmt("phys_to_logical[%llu] = %llu but the block map disagrees",
                     (unsigned long long)b, (unsigned long long)logical));
    }
  }

  // Log blocks: the per-block contents list mirrors the write pointer, and
  // every valid page in a log block is referenced by the page map (an
  // unreferenced valid page would resurrect stale data in recovery).
  for (const auto& [b, lpns] : ssc.log_contents_) {
    ++report.checks_run;
    if (b >= total_blocks || cls[b] != kLog) {
      report.Add("log.contents-stale", Fmt("log_contents has non-log block %llu",
                                           (unsigned long long)b));
      continue;
    }
    ++report.checks_run;
    if (lpns.size() != device.write_pointer(b)) {
      report.Add("log.contents-length",
                 Fmt("log block %llu: %zu recorded pages, write pointer %u",
                     (unsigned long long)b, lpns.size(), device.write_pointer(b)));
    }
    const uint64_t refs = [&] {
      const auto it = log_refs.find(b);
      return it != log_refs.end() ? it->second : uint64_t{0};
    }();
    for (uint32_t off = 0; off < device.write_pointer(b); ++off) {
      const bool valid = device.page_state(g.FirstPpnOf(b) + off) == PageState::kValid;
      const bool referenced = ((refs >> off) & 1u) != 0;
      ++report.checks_run;
      if (valid && !referenced) {
        report.Add("log.unreferenced-valid",
                   Fmt("log block %llu offset %u is valid but not page-mapped",
                       (unsigned long long)b, off));
      }
    }
  }
  for (PhysBlock b : ssc.log_blocks_) {
    ++report.checks_run;
    if (b < total_blocks && ssc.log_contents_.find(b) == ssc.log_contents_.end()) {
      report.Add("log.contents-missing", Fmt("log block %llu has no contents entry",
                                             (unsigned long long)b));
    }
  }

  // Cached/dirty page counters match the maps.
  ++report.checks_run;
  if (ssc.cached_pages_ != ssc.page_map_.size() + block_present) {
    report.Add("counter.cached-pages",
               Fmt("cached_pages %llu != %zu page-mapped + %llu block-mapped",
                   (unsigned long long)ssc.cached_pages_, ssc.page_map_.size(),
                   (unsigned long long)block_present));
  }
  ++report.checks_run;
  if (ssc.dirty_pages_ != page_dirty + block_dirty) {
    report.Add("counter.dirty-pages",
               Fmt("dirty_pages %llu != %llu page-mapped + %llu block-mapped",
                   (unsigned long long)ssc.dirty_pages_, (unsigned long long)page_dirty,
                   (unsigned long long)block_dirty));
  }

  // Capacity accounting is exact (clamped at zero): usable capacity is the
  // nominal capacity minus one full block of pages per retirement.
  const uint64_t retired_pages = retired_count * ppb;
  const uint64_t expect_usable = retired_pages >= ssc.config_.capacity_pages
                                     ? 0
                                     : ssc.config_.capacity_pages - retired_pages;
  ++report.checks_run;
  if (ssc.usable_capacity_pages() != expect_usable) {
    report.Add("endurance.capacity-accounting",
               Fmt("usable_capacity_pages %llu != expected %llu (%llu retired blocks)",
                   (unsigned long long)ssc.usable_capacity_pages(),
                   (unsigned long long)expect_usable, (unsigned long long)retired_count));
  }

  return report;
}

CheckReport InvariantChecker::Check(const SscDevice& ssc) {
  CheckReport report = CheckSscOnly(ssc);
  report.Merge(CheckPersistence(*ssc.persist_));
  return report;
}

CheckReport InvariantChecker::Check(const WriteBackManager& manager) {
  CheckReport report;
  const SscDevice& ssc = *manager.ssc_;
  const uint32_t ppb = ssc.device_->geometry().pages_per_block;

  // Every SSC-dirty page must be tracked by the manager, or it will never be
  // written back (silent data loss once the disk copy goes stale).
  std::unordered_set<Lbn> ssc_dirty;
  ssc.page_map_.ForEach([&](Lbn lbn, uint64_t packed) {
    if (SscDevice::PackedDirty(packed)) {
      ssc_dirty.insert(lbn);
    }
  });
  ssc.block_map_.ForEach([&](uint64_t logical, const SscDevice::BlockEntry& e) {
    for (uint32_t off = 0; off < ppb; ++off) {
      if ((e.dirty_bits >> off) & 1u) {
        ssc_dirty.insert(logical * ppb + off);
      }
    }
  });
  // Walk the dirty set in LBN order so a multi-violation report reads the
  // same on every stdlib (unordered_set iteration order is not a contract).
  std::vector<Lbn> dirty_sorted(ssc_dirty.begin(), ssc_dirty.end());
  std::sort(dirty_sorted.begin(), dirty_sorted.end());
  for (Lbn lbn : dirty_sorted) {
    ++report.checks_run;
    if (!manager.dirty_table_.Contains(lbn)) {
      report.Add("dirty-table.untracked",
                 Fmt("lbn %llu is dirty in the SSC but absent from the dirty table",
                     (unsigned long long)lbn));
    }
  }

  // Every tracked block must still be dirty in the SSC; a stale entry makes
  // the manager clean (and charge disk writes for) data that is not dirty.
  manager.dirty_table_.ForEach([&](Lbn lbn) {
    ++report.checks_run;
    if (ssc_dirty.find(lbn) == ssc_dirty.end()) {
      report.Add("dirty-table.stale",
                 Fmt("lbn %llu is in the dirty table but not dirty in the SSC",
                     (unsigned long long)lbn));
    }
  });

  // DiskGuard parked-queue audits (DESIGN.md §5i). A parked block is dirty
  // data the disk refused: it must stay in the dirty table (or it could
  // never be redriven), and every parked membership entry must be covered by
  // at least one queued run — an orphan would wait forever, and FlushAll
  // could never drain the queue. Collected through the queue's ranges so the
  // membership set itself is never iterated.
  std::set<Lbn> covered;
  for (const auto& run : manager.parked_) {
    for (Lbn lbn = run.start; lbn <= run.end; ++lbn) {
      if (manager.parked_lbns_.count(lbn) != 0) {
        covered.insert(lbn);
      }
    }
  }
  for (Lbn lbn : covered) {
    ++report.checks_run;
    if (!manager.dirty_table_.Contains(lbn)) {
      report.Add("parked-queue.not-dirty",
                 Fmt("lbn %llu is parked for writeback retry but no longer dirty",
                     (unsigned long long)lbn));
    }
  }
  ++report.checks_run;
  if (covered.size() != manager.parked_lbns_.size()) {
    report.Add("parked-queue.orphaned",
               Fmt("%llu parked blocks but only %llu covered by queued runs",
                   (unsigned long long)manager.parked_lbns_.size(),
                   (unsigned long long)covered.size()));
  }
  // Retry queues drain or escalate: repeated consecutive failures must have
  // tripped disk-degraded mode, never sat uncounted.
  ++report.checks_run;
  if (manager.consecutive_disk_failures_ >= WriteBackManager::kDiskDegradedTripLimit &&
      !manager.disk_degraded_) {
    report.Add("disk-degraded.untripped",
               Fmt("%u consecutive disk failures without entering disk-degraded mode",
                   manager.consecutive_disk_failures_));
  }

  report.Merge(Check(ssc));
  return report;
}

CheckReport InvariantChecker::Check(const CacheManager& manager) {
  if (const auto* wb = dynamic_cast<const WriteBackManager*>(&manager)) {
    return Check(*wb);
  }
  // Write-through and native managers keep no host-side cache metadata that
  // could disagree with the device.
  return CheckReport{};
}

CheckReport InvariantChecker::CheckSharded(const std::vector<const SscDevice*>& shards,
                                           const ShardRouter& router) {
  CheckReport report;
  for (size_t i = 0; i < shards.size(); ++i) {
    const SscDevice& ssc = *shards[i];
    report.Merge(Check(ssc));

    // Partition disjointness: every LBN this shard caches must route here.
    // Because routing is a pure function of the LBN, this simultaneously
    // proves no other shard can legally hold it — the slices are disjoint.
    const uint32_t ppb = ssc.device_->geometry().pages_per_block;
    const auto expect_here = [&](Lbn lbn, const char* where) {
      ++report.checks_run;
      const uint32_t owner = router.ShardOf(lbn);
      if (owner != i) {
        report.Add("shard.partition",
                   Fmt("%s lbn %llu cached in shard %zu but routes to shard %u", where,
                       (unsigned long long)lbn, i, owner));
      }
    };
    ssc.page_map_.ForEach([&](Lbn lbn, uint64_t) { expect_here(lbn, "page-map"); });
    ssc.block_map_.ForEach([&](uint64_t logical, const SscDevice::BlockEntry& e) {
      for (uint32_t off = 0; off < ppb; ++off) {
        if ((e.present_bits >> off) & 1u) {
          expect_here(logical * ppb + off, "block-map");
        }
      }
    });
  }
  return report;
}

bool InvariantChecker::SscHolds(const SscDevice& ssc, uint64_t lbn) {
  if (ssc.page_map_.Find(lbn) != nullptr) {
    return true;
  }
  const uint32_t ppb = ssc.device_->geometry().pages_per_block;
  const SscDevice::BlockEntry* e = ssc.block_map_.Find(lbn / ppb);
  return e != nullptr && ((e->present_bits >> (lbn % ppb)) & 1u) != 0;
}

CheckReport InvariantChecker::CheckPolicy(const AdmissionPolicy& policy, const SscDevice* ssc) {
  CheckReport report;

  // Bounded memory: every policy structure has a configured ceiling; actual
  // usage above it means a table or sketch grew past its capacity.
  ++report.checks_run;
  if (policy.MemoryUsage() > policy.MemoryBound()) {
    report.Add("policy.memory-bound",
               Fmt("policy '%.*s' uses %zu bytes, bound %zu",
                   static_cast<int>(policy.name().size()), policy.name().data(),
                   policy.MemoryUsage(), policy.MemoryBound()));
  }

  // Rejected-block-absent: a reject either found nothing cached or evicted
  // the stale copy (durably — G3), and an admission erases the block from
  // the rejects window. A rejected LBN present in the SSC therefore means
  // the bypass path leaked a mapping.
  if (ssc != nullptr) {
    policy.recent_rejects().ForEach([&](Lbn lbn, uint32_t) {
      ++report.checks_run;
      if (SscHolds(*ssc, lbn)) {
        report.Add("policy.rejected-present",
                   Fmt("rejected lbn %llu is cached in the SSC", (unsigned long long)lbn));
      }
    });
  }
  return report;
}

// ---------------------------------------------------------------------------
// InvariantChecker::CheckKv
// ---------------------------------------------------------------------------

void InvariantChecker::SscPageState(const SscDevice& ssc, uint64_t lbn, bool* present,
                                    bool* dirty) {
  *present = false;
  *dirty = false;
  if (const uint64_t* packed = ssc.page_map_.Find(lbn); packed != nullptr) {
    *present = true;
    *dirty = SscDevice::PackedDirty(*packed);
    return;
  }
  const uint32_t ppb = ssc.device_->geometry().pages_per_block;
  if (const SscDevice::BlockEntry* e = ssc.block_map_.Find(lbn / ppb); e != nullptr) {
    const uint32_t off = static_cast<uint32_t>(lbn % ppb);
    if ((e->present_bits >> off) & 1u) {
      *present = true;
      *dirty = ((e->dirty_bits >> off) & 1u) != 0;
    }
  }
}

CheckReport InvariantChecker::CheckKv(const KvShard& shard, bool faults_possible) {
  CheckReport report;
  const auto& slabs = shard.slabs();

  // Exactly the advertised open slab may be unsealed, and sequence numbers
  // never catch up with the allocator.
  uint64_t unsealed = 0;
  uint64_t live_total = 0;
  for (const auto& [seq, slab] : slabs) {
    ++report.checks_run;
    if (!slab.sealed) {
      ++unsealed;
      if (!shard.has_open_slab() || shard.open_slab_seq() != seq) {
        report.Add("kv.open-slab",
                   Fmt("unsealed slab %llu is not the open slab", (unsigned long long)seq));
      }
    }
    ++report.checks_run;
    if (seq >= shard.next_slab_seq()) {
      report.Add("kv.seq-monotonic", Fmt("slab %llu >= next seq %llu", (unsigned long long)seq,
                                         (unsigned long long)shard.next_slab_seq()));
    }
  }
  ++report.checks_run;
  if (unsealed > 1) {
    report.Add("kv.open-slab", Fmt("%llu unsealed slabs, at most 1 allowed",
                                   (unsigned long long)unsealed));
  }
  ++report.checks_run;
  if (shard.has_open_slab() && slabs.find(shard.open_slab_seq()) == slabs.end()) {
    report.Add("kv.open-slab", Fmt("open slab %llu missing from the directory",
                                   (unsigned long long)shard.open_slab_seq()));
  }

  for (const auto& [seq, slab] : slabs) {
    // Recompute the occupancy bookkeeping from the slots themselves.
    uint32_t used = 0;
    uint32_t live_bytes = 0;
    uint32_t live_count = 0;
    uint32_t dirty_live = 0;
    uint32_t prev_end = 0;
    bool overlap = false;
    std::vector<bool> page_holds_live_dirty(slab.sealed ? slab.pages_spanned : 0, false);
    for (uint32_t i = 0; i < slab.slots.size(); ++i) {
      const KvSlot& slot = slab.slots[i];
      if (!slot.live) {
        continue;  // dead slots may be placeholder entries after recovery
      }
      const uint32_t bytes = KvSlotBytes(slot.size);
      if (slot.offset < prev_end) {
        overlap = true;
      }
      prev_end = slot.offset + bytes;
      used = std::max(used, prev_end);
      ++live_total;
      live_bytes += bytes;
      ++live_count;
      if (slot.dirty) {
        ++dirty_live;
        for (uint32_t page = slot.offset / kKvPageBytes;
             page <= (prev_end - 1) / kKvPageBytes; ++page) {
          if (page < page_holds_live_dirty.size()) {
            page_holds_live_dirty[page] = true;
          }
        }
      }
      // Key-map agreement, slot side: every live slot is reachable under its
      // own key at exactly this location.
      ++report.checks_run;
      const uint64_t* loc = shard.key_map().Find(slot.key);
      if (loc == nullptr || KvShard::LocSeq(*loc) != seq || KvShard::LocSlot(*loc) != i) {
        report.Add("kv.slot-unmapped",
                   Fmt("live slot %u of slab %llu (key %llu) is not mapped back", i,
                       (unsigned long long)seq, (unsigned long long)slot.key));
      }
    }
    ++report.checks_run;
    if (overlap) {
      report.Add("kv.slot-overlap", Fmt("slab %llu has overlapping slots",
                                        (unsigned long long)seq));
    }
    ++report.checks_run;
    // used_bytes is the append frontier: it covers every live slot but may
    // exceed the live maximum (dead slots keep their space until compaction).
    if (used > slab.used_bytes || live_bytes != slab.live_bytes ||
        live_count != slab.live_count || dirty_live != slab.dirty_live) {
      report.Add("kv.slab-counters",
                 Fmt("slab %llu counters used=%u/%u live=%u/%u count=%u/%u dirty=%u/%u",
                     (unsigned long long)seq, slab.used_bytes, used, slab.live_bytes,
                     live_bytes, slab.live_count, live_count, slab.dirty_live, dirty_live));
    }
    ++report.checks_run;
    if (slab.used_bytes > shard.slab_capacity_bytes()) {
      report.Add("kv.slab-overflow", Fmt("slab %llu uses %u of %u bytes",
                                         (unsigned long long)seq, slab.used_bytes,
                                         shard.slab_capacity_bytes()));
    }
    if (!slab.sealed) {
      continue;  // open slab lives in device RAM; no medium to agree with
    }
    ++report.checks_run;
    const uint32_t expect_pages =
        std::max<uint32_t>(1, (slab.used_bytes + kKvPageBytes - 1) / kKvPageBytes);
    if (slab.pages_spanned != expect_pages || slab.pages_spanned > shard.slab_pages()) {
      report.Add("kv.slab-pages", Fmt("slab %llu spans %u pages, expected %u (max %u)",
                                      (unsigned long long)seq, slab.pages_spanned,
                                      expect_pages, shard.slab_pages()));
    }
    ++report.checks_run;
    if (!faults_possible && slab.dirty_written && dirty_live == 0) {
      // The last dirty object's death hands the slab to silent eviction via
      // Clean; a quiescent dirty-written slab with no dirty slots missed it.
      report.Add("kv.dirty-flag", Fmt("sealed slab %llu still dirty-written with no "
                                      "live dirty slots",
                                      (unsigned long long)seq));
    }
    // Medium agreement: pages holding live dirty objects must be present and
    // dirty (silent eviction only drops clean data); pages of a clean slab
    // may be gone, but must never show up dirty.
    for (uint32_t page = 0; page < slab.pages_spanned; ++page) {
      bool present = false;
      bool dirty = false;
      SscPageState(shard.ssc(), shard.SlabBaseLbn(seq) + page, &present, &dirty);
      ++report.checks_run;
      if (page < page_holds_live_dirty.size() && page_holds_live_dirty[page]) {
        if (!present) {
          if (!faults_possible) {
            report.Add("kv.dirty-page-missing",
                       Fmt("slab %llu page %u holds live dirty objects but is absent",
                           (unsigned long long)seq, page));
          }
        } else if (!dirty) {
          report.Add("kv.dirty-page-clean",
                     Fmt("slab %llu page %u holds live dirty objects but is clean",
                         (unsigned long long)seq, page));
        }
      } else if (present && dirty && !slab.dirty_written) {
        report.Add("kv.clean-slab-dirty-page",
                   Fmt("clean slab %llu page %u is dirty on the medium",
                       (unsigned long long)seq, page));
      }
    }
  }

  // Compaction index: the shard keeps the sealed totals and the victim
  // incrementally; both must equal a full walk of the directory.
  KvSealedTotals totals;
  uint64_t victim = KvShard::kNoSlab;
  uint32_t victim_dead = 0;
  for (const auto& [seq, slab] : slabs) {
    if (!slab.sealed) {
      continue;
    }
    ++totals.slabs;
    totals.used_bytes += slab.used_bytes;
    totals.dead_bytes += slab.dead_bytes();
    if (slab.dead_bytes() > victim_dead) {  // strict: ties stay with the lower seq
      victim = seq;
      victim_dead = slab.dead_bytes();
    }
  }
  const KvSealedTotals& kept = shard.sealed_totals();
  ++report.checks_run;
  if (!(kept == totals)) {
    report.Add("kv.compaction-index",
               Fmt("sealed totals slabs=%llu/%llu used=%llu/%llu dead=%llu/%llu (kept/walked)",
                   (unsigned long long)kept.slabs, (unsigned long long)totals.slabs,
                   (unsigned long long)kept.used_bytes, (unsigned long long)totals.used_bytes,
                   (unsigned long long)kept.dead_bytes, (unsigned long long)totals.dead_bytes));
  }
  ++report.checks_run;
  if (const uint64_t kept_victim = shard.PeekCompactionVictim(); kept_victim != victim) {
    // kNoSlab, no victim, prints as -1.
    report.Add("kv.compaction-index",
               Fmt("compaction victim %lld, directory walk picks %lld (%u dead bytes)",
                   static_cast<long long>(kept_victim), static_cast<long long>(victim),
                   victim_dead));
  }

  // Key-map agreement, map side: every mapping points at a live slot that
  // carries the same key, and the map holds exactly the live slots.
  shard.key_map().ForEach([&](uint64_t key, uint64_t loc) {
    ++report.checks_run;
    const uint64_t seq = KvShard::LocSeq(loc);
    const uint32_t idx = KvShard::LocSlot(loc);
    const auto it = slabs.find(seq);
    if (it == slabs.end() || idx >= it->second.slots.size()) {
      report.Add("kv.keymap-dangling", Fmt("key %llu maps to missing slab %llu slot %u",
                                           (unsigned long long)key, (unsigned long long)seq,
                                           idx));
      return;
    }
    const KvSlot& slot = it->second.slots[idx];
    if (!slot.live || slot.key != key) {
      report.Add("kv.keymap-mismatch",
                 Fmt("key %llu maps to %s slot %u of slab %llu (slot key %llu)",
                     (unsigned long long)key, slot.live ? "live" : "dead", idx,
                     (unsigned long long)seq, (unsigned long long)slot.key));
    }
  });
  ++report.checks_run;
  if (shard.key_map().size() != live_total) {
    report.Add("kv.keymap-count", Fmt("key map holds %llu keys, slabs hold %llu live slots",
                                      (unsigned long long)shard.key_map().size(),
                                      (unsigned long long)live_total));
  }

  // Admission policy: bounded memory, and no recently rejected key may be
  // cached — the reject path either found nothing or evicted the stale copy.
  const AdmissionPolicy& policy = shard.policy();
  ++report.checks_run;
  if (policy.MemoryUsage() > policy.MemoryBound()) {
    report.Add("kv.policy.memory-bound",
               Fmt("policy '%.*s' uses %zu bytes, bound %zu",
                   static_cast<int>(policy.name().size()), policy.name().data(),
                   policy.MemoryUsage(), policy.MemoryBound()));
  }
  policy.recent_rejects().ForEach([&](uint64_t key, uint32_t) {
    ++report.checks_run;
    if (shard.key_map().Contains(key)) {
      report.Add("kv.policy.rejected-present",
                 Fmt("rejected key %llu is cached", (unsigned long long)key));
    }
  });

  // The device the slabs live on must itself be sound.
  report.Merge(Check(shard.ssc()));
  return report;
}

CheckReport InvariantChecker::CheckKv(const KvCache& cache, bool faults_possible) {
  CheckReport report;
  for (uint32_t i = 0; i < cache.shard_count(); ++i) {
    CheckReport r = CheckKv(cache.shard(i), faults_possible);
    report.checks_run += r.checks_run;
    report.violation_count += r.violation_count;
    for (InvariantViolation& v : r.violations) {
      if (report.violations.size() >= CheckReport::kMaxRecorded) {
        break;
      }
      report.violations.push_back(
          {std::move(v.invariant), Fmt("shard %u: ", i) + v.detail});
    }
    // Cross-shard partition: a shard may only cache keys the router assigns
    // to it, so no object can be cached (or go stale) in two shards at once.
    cache.shard(i).key_map().ForEach([&](uint64_t key, uint64_t) {
      ++report.checks_run;
      if (cache.ShardOf(key) != i) {
        report.Add("kv.shard-partition",
                   Fmt("key %llu cached in shard %u but routed to %u",
                       (unsigned long long)key, i, cache.ShardOf(key)));
      }
    });
  }
  return report;
}

}  // namespace flashtier
