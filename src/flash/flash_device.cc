#include "src/flash/flash_device.h"

#include <algorithm>
#include <cmath>

namespace flashtier {

FlashDevice::FlashDevice(const FlashGeometry& geometry, SimClock* clock, const FaultPlan& faults)
    : geometry_(geometry),
      clock_(clock),
      pipeline_(geometry, clock),
      faults_(faults),
      fault_rng_(faults.seed),
      pages_(geometry.TotalPages()),
      blocks_(geometry.TotalBlocks()) {}

void FlashDevice::Charge(FlashPipeline::Op op, uint32_t plane) {
  stats_.busy_us += FlashPipeline::NominalCostUs(op);
  pipeline_.Execute(op, plane);
}

void FlashDevice::ChargeCopy(uint32_t src_plane, uint32_t dst_plane) {
  stats_.busy_us += FlashTimings::CopyCostUs();
  pipeline_.ExecuteCopy(src_plane, dst_plane);
}

void FlashDevice::MaybeWearFaultOnRead(Block& b, Page& page) {
  ++b.reads_since_erase;
  if (page.corrupt) {
    return;
  }
  if (faults_.read_disturb_limit > 0 && faults_.read_disturb_prob > 0.0 &&
      b.reads_since_erase > faults_.read_disturb_limit &&
      fault_rng_.Chance(faults_.read_disturb_prob)) {
    page.corrupt = true;
    ++fault_stats_.read_disturbs;
    return;
  }
  if (faults_.retention_age_us > 0 && faults_.retention_fail_prob > 0.0 &&
      clock_->now_us() - page.programmed_at_us >= faults_.retention_age_us &&
      fault_rng_.Chance(faults_.retention_fail_prob)) {
    page.corrupt = true;
    ++fault_stats_.retention_failures;
  }
}

Status FlashDevice::ProgramPage(PhysBlock block, const OobRecord& oob, uint64_t token, Ppn* ppn) {
  if (block >= blocks_.size()) {
    return Status::kInvalidArgument;
  }
  Block& b = blocks_[block];
  if (b.next_page >= geometry_.pages_per_block) {
    return Status::kNoSpace;
  }
  if (faults_.enabled) {
    bool inject = false;
    if (!fault_injection_paused_) {
      ++program_ops_;
      inject = InjectFault(faults_.program_fail_at, program_ops_, faults_.program_fail_prob,
                           fault_rng_);
    }
    if (b.bad || b.program_failed || inject) {
      // The aborted program leaves the write pointer where it was; the block
      // only becomes usable again through a successful erase.
      b.program_failed = true;
      ++fault_stats_.program_failures;
      Charge(FlashPipeline::Op::kWrite, geometry_.PlaneOf(block));
      return Status::kIoError;
    }
  }
  const Ppn p = geometry_.FirstPpnOf(block) + b.next_page;
  ++b.next_page;
  ++b.valid_pages;
  Page& page = pages_[p];
  page.state = PageState::kValid;
  page.oob = oob;
  page.oob.seq = next_seq_++;
  page.token = token;
  page.programmed_at_us = clock_->now_us();
  ++stats_.page_writes;
  Charge(FlashPipeline::Op::kWrite, geometry_.PlaneOf(block));
  if (ppn != nullptr) {
    *ppn = p;
  }
  return Status::kOk;
}

Status FlashDevice::ReadPage(Ppn ppn, uint64_t* token) {
  if (ppn >= pages_.size()) {
    return Status::kInvalidArgument;
  }
  Page& page = pages_[ppn];
  if (page.state == PageState::kFree) {
    return Status::kIoError;
  }
  if (faults_.enabled) {
    if (!fault_injection_paused_) {
      ++read_ops_;
      if (!page.corrupt &&
          InjectFault(faults_.read_corrupt_at, read_ops_, faults_.read_corrupt_prob, fault_rng_)) {
        page.corrupt = true;
      }
      MaybeWearFaultOnRead(blocks_[geometry_.BlockOf(ppn)], page);
    }
    if (page.corrupt) {
      ++fault_stats_.read_corruptions;
      ++stats_.page_reads;
      Charge(FlashPipeline::Op::kRead, geometry_.PlaneOf(geometry_.BlockOf(ppn)));
      return Status::kCorrupt;
    }
  }
  if (token != nullptr) {
    *token = page.token;
  }
  ++stats_.page_reads;
  Charge(FlashPipeline::Op::kRead, geometry_.PlaneOf(geometry_.BlockOf(ppn)));
  return Status::kOk;
}

Status FlashDevice::ReadOob(Ppn ppn, OobRecord* oob_out) {
  if (ppn >= pages_.size()) {
    return Status::kInvalidArgument;
  }
  const Page& page = pages_[ppn];
  if (oob_out != nullptr) {
    *oob_out = page.oob;
  }
  ++stats_.oob_reads;
  Charge(FlashPipeline::Op::kOobRead, geometry_.PlaneOf(geometry_.BlockOf(ppn)));
  return page.state == PageState::kFree ? Status::kIoError : Status::kOk;
}

Status FlashDevice::MarkInvalid(Ppn ppn) {
  if (ppn >= pages_.size()) {
    return Status::kInvalidArgument;
  }
  Page& page = pages_[ppn];
  if (page.state != PageState::kValid) {
    return Status::kInvalidArgument;
  }
  page.state = PageState::kInvalid;
  Block& b = blocks_[geometry_.BlockOf(ppn)];
  --b.valid_pages;
  return Status::kOk;
}

Status FlashDevice::MarkValid(Ppn ppn) {
  if (ppn >= pages_.size()) {
    return Status::kInvalidArgument;
  }
  Page& page = pages_[ppn];
  if (page.state != PageState::kInvalid) {
    return Status::kInvalidArgument;
  }
  page.state = PageState::kValid;
  ++blocks_[geometry_.BlockOf(ppn)].valid_pages;
  return Status::kOk;
}

Status FlashDevice::SkipPage(PhysBlock block) {
  if (block >= blocks_.size()) {
    return Status::kInvalidArgument;
  }
  Block& b = blocks_[block];
  if (b.next_page >= geometry_.pages_per_block) {
    return Status::kNoSpace;
  }
  ++b.next_page;
  return Status::kOk;
}

Status FlashDevice::EraseBlock(PhysBlock block) {
  if (block >= blocks_.size()) {
    return Status::kInvalidArgument;
  }
  Block& b = blocks_[block];
  if (faults_.enabled) {
    bool inject = false;
    if (!fault_injection_paused_) {
      ++erase_ops_;
      inject = InjectFault(faults_.erase_fail_at, erase_ops_, faults_.erase_fail_prob, fault_rng_);
    }
    const bool worn_out = faults_.wear_out_erases > 0 && b.erase_count >= faults_.wear_out_erases;
    if (b.bad || worn_out || inject) {
      // A failed erase is permanent: the block is bad and its pages keep
      // whatever (possibly invalid) contents they had.
      b.bad = true;
      ++fault_stats_.erase_failures;
      Charge(FlashPipeline::Op::kErase, geometry_.PlaneOf(block));
      return Status::kIoError;
    }
  }
  const Ppn first = geometry_.FirstPpnOf(block);
  for (uint32_t i = 0; i < b.next_page; ++i) {
    Page& page = pages_[first + i];
    page.state = PageState::kFree;
    page.oob = OobRecord{};
    page.token = 0;
    page.corrupt = false;
    page.programmed_at_us = 0;
  }
  b.next_page = 0;
  b.valid_pages = 0;
  b.reads_since_erase = 0;
  b.program_failed = false;
  ++b.erase_count;
  ++stats_.erases;
  Charge(FlashPipeline::Op::kErase, geometry_.PlaneOf(block));
  return Status::kOk;
}

Status FlashDevice::CopyPage(Ppn src, PhysBlock dst_block, Ppn* dst_ppn) {
  if (src >= pages_.size() || dst_block >= blocks_.size()) {
    return Status::kInvalidArgument;
  }
  Page& src_page = pages_[src];
  if (src_page.state != PageState::kValid) {
    return Status::kInvalidArgument;
  }
  Block& db = blocks_[dst_block];
  if (db.next_page >= geometry_.pages_per_block) {
    return Status::kNoSpace;
  }
  if (faults_.enabled) {
    // A copy is an internal read + program; both legs can fail. All checks
    // happen before any mutation so a failed copy leaves the medium unchanged
    // (the source stays valid, the destination pointer does not move).
    if (!fault_injection_paused_) {
      ++read_ops_;
      if (!src_page.corrupt &&
          InjectFault(faults_.read_corrupt_at, read_ops_, faults_.read_corrupt_prob, fault_rng_)) {
        src_page.corrupt = true;
      }
      MaybeWearFaultOnRead(blocks_[geometry_.BlockOf(src)], src_page);
    }
    if (src_page.corrupt) {
      ++fault_stats_.read_corruptions;
      ++stats_.page_reads;
      Charge(FlashPipeline::Op::kRead, geometry_.PlaneOf(geometry_.BlockOf(src)));
      return Status::kCorrupt;
    }
    bool inject = false;
    if (!fault_injection_paused_) {
      ++program_ops_;
      inject = InjectFault(faults_.program_fail_at, program_ops_, faults_.program_fail_prob,
                           fault_rng_);
    }
    if (db.bad || db.program_failed || inject) {
      db.program_failed = true;
      ++fault_stats_.program_failures;
      ChargeCopy(geometry_.PlaneOf(geometry_.BlockOf(src)), geometry_.PlaneOf(dst_block));
      return Status::kIoError;
    }
  }
  const Ppn dst = geometry_.FirstPpnOf(dst_block) + db.next_page;
  ++db.next_page;
  ++db.valid_pages;
  Page& dst_page = pages_[dst];
  dst_page.state = PageState::kValid;
  dst_page.oob = src_page.oob;  // the copied page is the same logical version
  dst_page.token = src_page.token;
  // The copy is a fresh program: its retention clock restarts, which is what
  // makes patrol-scrub relocation an actual repair.
  dst_page.programmed_at_us = clock_->now_us();
  src_page.state = PageState::kInvalid;
  --blocks_[geometry_.BlockOf(src)].valid_pages;
  ++stats_.gc_copies;
  ChargeCopy(geometry_.PlaneOf(geometry_.BlockOf(src)), geometry_.PlaneOf(dst_block));
  if (dst_ppn != nullptr) {
    *dst_ppn = dst;
  }
  return Status::kOk;
}

uint64_t FlashDevice::OldestProgramAgeUs(PhysBlock block) const {
  if (block >= blocks_.size()) {
    return 0;
  }
  const Block& b = blocks_[block];
  const Ppn first = geometry_.FirstPpnOf(block);
  uint64_t oldest = UINT64_MAX;
  for (uint32_t i = 0; i < b.next_page; ++i) {
    const Page& page = pages_[first + i];
    if (page.state != PageState::kFree) {
      oldest = std::min(oldest, page.programmed_at_us);
    }
  }
  if (oldest == UINT64_MAX) {
    return 0;
  }
  const uint64_t now = clock_->now_us();
  return now > oldest ? now - oldest : 0;
}

uint32_t FlashDevice::MaxWearDiff() const {
  uint32_t lo = blocks_.empty() ? 0 : blocks_[0].erase_count;
  uint32_t hi = lo;
  for (const Block& b : blocks_) {
    lo = std::min(lo, b.erase_count);
    hi = std::max(hi, b.erase_count);
  }
  return hi - lo;
}

double EraseCountCv(const std::vector<const FlashDevice*>& media) {
  uint64_t n = 0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const FlashDevice* dev : media) {
    const uint32_t total = dev->geometry().TotalBlocks();
    for (uint32_t b = 0; b < total; ++b) {
      const double e = static_cast<double>(dev->erase_count(b));
      sum += e;
      sum_sq += e * e;
      ++n;
    }
  }
  if (n == 0) {
    return 0.0;
  }
  const double mean = sum / static_cast<double>(n);
  if (mean <= 0.0) {
    return 0.0;
  }
  const double variance = std::max(0.0, sum_sq / static_cast<double>(n) - mean * mean);
  return std::sqrt(variance) / mean;
}

}  // namespace flashtier
