#include "src/flash/pipeline.h"

namespace flashtier {

uint64_t FlashPipeline::NominalCostUs(Op op) {
  switch (op) {
    case Op::kRead:
      return FlashTimings::ReadCostUs();
    case Op::kWrite:
      return FlashTimings::WriteCostUs();
    case Op::kErase:
      return FlashTimings::EraseCostUs();
    case Op::kCopy:
      return FlashTimings::CopyCostUs();
    case Op::kOobRead:
      return FlashTimings::OobReadCostUs();
  }
  return 0;
}

FlashPipeline::Completion FlashPipeline::Execute(Op op, uint32_t plane) {
  if (op == Op::kCopy) {
    return ExecuteCopy(plane, plane);
  }
  const uint64_t chain = clock_->now_us();
  PipelineResource& channel = ChannelRes(plane);
  PipelineResource& array = PlaneRes(plane);
  Completion c;
  c.seq = ++seq_;
  uint64_t t = chain;
  switch (op) {
    case Op::kRead: {
      // Command dispatch + data transfer as one contiguous channel slot, then
      // the array sense. Resources are append-only frontiers, so holding the
      // channel open across the sense gap (command first, transfer after the
      // sense) would block every later command for the whole 77 us — the
      // upfront slot is the standard simplification that lets transfers
      // interleave with other planes' sense time.
      const uint64_t xfer = FlashTimings::kControlUs + FlashTimings::kBusControlUs;
      const uint64_t cmd_done = channel.Occupy(t, xfer);
      c.start_us = cmd_done - xfer;
      t = array.Occupy(cmd_done, FlashTimings::kPageReadUs);
      break;
    }
    case Op::kOobRead: {
      // Command dispatch, array sense; the OOB bytes ride the command
      // response (no data transfer phase — OobReadCostUs charges none).
      const uint64_t cmd_done = channel.Occupy(t, FlashTimings::kControlUs);
      c.start_us = cmd_done - FlashTimings::kControlUs;
      t = array.Occupy(cmd_done, FlashTimings::kPageReadUs);
      break;
    }
    case Op::kWrite: {
      // Command + bus transfer in, then array program.
      const uint64_t xfer = FlashTimings::kControlUs + FlashTimings::kBusControlUs;
      const uint64_t xfer_done = channel.Occupy(t, xfer);
      c.start_us = xfer_done - xfer;
      t = array.Occupy(xfer_done, FlashTimings::kPageWriteUs);
      break;
    }
    case Op::kErase: {
      const uint64_t cmd_done = channel.Occupy(t, FlashTimings::kControlUs);
      c.start_us = cmd_done - FlashTimings::kControlUs;
      t = array.Occupy(cmd_done, FlashTimings::kBlockEraseUs);
      break;
    }
    case Op::kCopy:
      break;  // handled above
  }
  c.done_us = t;
  clock_->SyncTo(c.done_us);
  return c;
}

FlashPipeline::Completion FlashPipeline::ExecuteCopy(uint32_t src_plane, uint32_t dst_plane) {
  // Copy-back: one command (destination channel), read-array on the source
  // plane, program-array on the destination plane. No host bus transfer, as
  // CopyCostUs models.
  const uint64_t chain = clock_->now_us();
  Completion c;
  c.seq = ++seq_;
  const uint64_t cmd_done = ChannelRes(dst_plane).Occupy(chain, FlashTimings::kControlUs);
  c.start_us = cmd_done - FlashTimings::kControlUs;
  const uint64_t sense_done = PlaneRes(src_plane).Occupy(cmd_done, FlashTimings::kPageReadUs);
  c.done_us = PlaneRes(dst_plane).Occupy(sense_done, FlashTimings::kPageWriteUs);
  clock_->SyncTo(c.done_us);
  return c;
}

FlashPipeline::Completion FlashPipeline::ExecuteControl(uint64_t us, uint64_t channel_hint) {
  Completion c;
  c.seq = ++seq_;
  c.done_us = channels_[channel_hint % channels_.size()].Occupy(clock_->now_us(), us);
  c.start_us = c.done_us - us;
  clock_->SyncTo(c.done_us);
  return c;
}

FlashPipeline::Completion FlashPipeline::ExecuteLog(uint64_t us) {
  Completion c;
  c.seq = ++seq_;
  c.done_us = log_.Occupy(clock_->now_us(), us);
  c.start_us = c.done_us - us;
  clock_->SyncTo(c.done_us);
  return c;
}

void FlashPipeline::Reset() {
  for (PipelineResource& p : planes_) {
    p.Reset();
  }
  for (PipelineResource& ch : channels_) {
    ch.Reset();
  }
  log_.Reset();
}

}  // namespace flashtier
