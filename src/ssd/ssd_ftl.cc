#include "src/ssd/ssd_ftl.h"

#include <algorithm>
#include <cassert>

namespace flashtier {

namespace {
// OOB bytes available per page for mapping metadata during recovery scans;
// the paper cites 64-224 byte OOB areas (Section 4.1), we take the low end.
constexpr uint64_t kOobBytesPerPage = 64;
}  // namespace

SsdFtl::SsdFtl(uint64_t logical_pages, SimClock* clock, const Options& options)
    : options_(options), logical_pages_(logical_pages) {
  const FlashGeometry& probe = options.geometry;
  logical_blocks_ = (logical_pages + probe.pages_per_block - 1) / probe.pages_per_block;
  max_log_blocks_ = std::max<uint32_t>(
      2, static_cast<uint32_t>(static_cast<double>(logical_blocks_) * kLogReserveFraction));

  const uint64_t physical_blocks = logical_blocks_ + max_log_blocks_ + kSpareBlocks;
  FlashGeometry geometry =
      FlashGeometry::ForCapacity(physical_blocks * probe.EraseBlockBytes(), probe);
  AttachFlash(std::make_unique<FlashDevice>(geometry, clock, options.fault_plan));
  block_map_.Reset(logical_blocks_, kInvalidBlock);
}

Status SsdFtl::Read(uint64_t lpn, uint64_t* token) {
  if (lpn >= logical_pages_) {
    return Status::kInvalidArgument;
  }
  ++ftl_stats_.host_reads;
  const auto log_it = log_map_.find(lpn);
  if (log_it != log_map_.end()) {
    return device_->ReadPage(log_it->second, token);
  }
  const FlashGeometry& g = device_->geometry();
  const PhysBlock* data = block_map_.Find(lpn / g.pages_per_block);
  if (data != nullptr) {
    const Ppn ppn = g.FirstPpnOf(*data) + lpn % g.pages_per_block;
    if (device_->page_state(ppn) == PageState::kValid) {
      return device_->ReadPage(ppn, token);
    }
  }
  ++ftl_stats_.host_read_misses;
  return Status::kNotPresent;
}

Status SsdFtl::Write(uint64_t lpn, uint64_t token) {
  if (lpn >= logical_pages_) {
    return Status::kInvalidArgument;
  }
  ++ftl_stats_.host_writes;
  OobRecord oob;
  oob.lbn = lpn;
  Ppn ppn = kInvalidPpn;
  if (Status s = AppendToLog(/*min_free=*/1, oob, token, &ppn); !IsOk(s)) {
    return s;
  }
  InvalidateOldVersion(lpn);
  log_map_[lpn] = ppn;
  MaybeWearLevel();
  return Status::kOk;
}

Status SsdFtl::Trim(uint64_t lpn) {
  if (lpn >= logical_pages_) {
    return Status::kInvalidArgument;
  }
  InvalidateOldVersion(lpn);
  return Status::kOk;
}

void SsdFtl::InvalidateOldVersion(uint64_t lpn) {
  const auto log_it = log_map_.find(lpn);
  if (log_it != log_map_.end()) {
    AssertOk(device_->MarkInvalid(log_it->second));
    log_map_.erase(log_it);
    return;
  }
  const FlashGeometry& g = device_->geometry();
  const LogicalBlock logical = lpn / g.pages_per_block;
  const PhysBlock* data = block_map_.Find(logical);
  if (data != nullptr) {
    const Ppn ppn = g.FirstPpnOf(*data) + lpn % g.pages_per_block;
    if (device_->page_state(ppn) == PageState::kValid) {
      AssertOk(device_->MarkInvalid(ppn));
      // A data block whose pages are all superseded or trimmed is reclaimed
      // eagerly: live versions, if any, are all in the log.
      if (device_->valid_pages(*data) == 0) {
        RemoveDataBlock(logical);
      }
    }
  }
}

void SsdFtl::InstallDataBlock(LogicalBlock logical, PhysBlock phys, uint64_t, uint64_t) {
  if (const PhysBlock* old = block_map_.Find(logical); old != nullptr) {
    assert(device_->valid_pages(*old) == 0);
    EraseOrRetire(*old);
  }
  block_map_.Insert(logical, phys);
}

void SsdFtl::RemoveDataBlock(LogicalBlock logical) {
  if (const PhysBlock* data = block_map_.Find(logical); data != nullptr) {
    const PhysBlock phys = *data;
    block_map_.Erase(logical);
    EraseOrRetire(phys);
  }
}

bool SsdFtl::ColdestDataBlock(PhysBlock* phys, LogicalBlock* logical) const {
  // The data block sitting on the least-erased flash. Data blocks are the
  // cold end of a FAST FTL — log blocks churn constantly.
  uint32_t coldest_wear = ~0u;
  for (LogicalBlock l = 0; l < logical_blocks_; ++l) {
    const PhysBlock* b = block_map_.Find(l);
    if (b != nullptr && device_->erase_count(*b) < coldest_wear) {
      coldest_wear = device_->erase_count(*b);
      *phys = *b;
      *logical = l;
    }
  }
  return coldest_wear != ~0u;
}

size_t SsdFtl::DeviceMemoryUsage() const {
  // Dense block-level map + fully-associative log page map (~32 B/entry for a
  // chained hash node) + per-log-block reverse metadata + free lists.
  size_t bytes = block_map_.MemoryUsage();
  bytes += log_map_.size() * (sizeof(uint64_t) + sizeof(Ppn) + 16);
  bytes += LogContentsMemoryUsage();
  bytes += allocator_->MemoryUsage();
  return bytes;
}

uint64_t SsdFtl::RecoveryOobScanUs() const {
  const uint64_t map_bytes = DeviceMemoryUsage();
  const uint64_t pages = (map_bytes + kOobBytesPerPage - 1) / kOobBytesPerPage;
  return pages * FlashTimings::OobReadCostUs();
}

}  // namespace flashtier
