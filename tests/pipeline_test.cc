// Tests for the plane-pipelined event engine: phase decompositions must sum
// to the legacy closed-loop costs (the depth-1 bit-identity guarantee),
// array phases on distinct planes must overlap while same-plane phases
// serialize, tie-breaking must be deterministic in program order, and the
// open-loop queue must bracket submits/completions as designed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "src/core/open_loop.h"
#include "src/flash/flash_device.h"
#include "src/flash/geometry.h"
#include "src/flash/pipeline.h"
#include "src/flash/timing.h"

namespace flashtier {
namespace {

using Op = FlashPipeline::Op;

// Table 2 defaults: read 77, write 97, erase 1010, copy 160, oob 75; the
// channel (command+transfer) slices are 12, 12, 10, 10, 10 of those.
using T = FlashTimings;

TEST(PipelineTest, NominalCostsMatchLegacyClosedLoopCosts) {
  SimClock clock;
  FlashPipeline p(FlashGeometry{}, &clock);
  EXPECT_EQ(p.NominalCostUs(Op::kRead), T::ReadCostUs());
  EXPECT_EQ(p.NominalCostUs(Op::kWrite), T::WriteCostUs());
  EXPECT_EQ(p.NominalCostUs(Op::kErase), T::EraseCostUs());
  EXPECT_EQ(p.NominalCostUs(Op::kCopy), T::CopyCostUs());
  EXPECT_EQ(p.NominalCostUs(Op::kOobRead), T::OobReadCostUs());
}

// Depth 1 (a chain that never rewinds): every op's makespan equals its
// nominal cost exactly, whatever plane it lands on — this is what keeps the
// pipelined engine bit-identical to "advance the clock by full service
// time" for all existing closed-loop replay.
TEST(PipelineTest, UncontendedMakespanEqualsNominalCost) {
  SimClock clock;
  FlashPipeline p(FlashGeometry{}, &clock);
  uint64_t expected = 0;
  const struct {
    Op op;
    uint32_t plane;
  } ops[] = {{Op::kRead, 0}, {Op::kWrite, 3}, {Op::kOobRead, 3}, {Op::kErase, 7},
             {Op::kRead, 7}, {Op::kWrite, 0}};
  for (const auto& [op, plane] : ops) {
    const uint64_t before = clock.now_us();
    const FlashPipeline::Completion c = p.Execute(op, plane);
    expected += p.NominalCostUs(op);
    EXPECT_EQ(c.start_us, before);
    EXPECT_EQ(c.done_us, before + p.NominalCostUs(op));
    EXPECT_EQ(clock.now_us(), expected);
  }
  const uint64_t before = clock.now_us();
  const FlashPipeline::Completion c = p.ExecuteCopy(2, 5);
  EXPECT_EQ(c.done_us, before + T::CopyCostUs());
}

// Two reads submitted at the same time on distinct planes overlap their
// array phases: the pair's makespan is far less than two serial reads. The
// second read only waits where it shares a resource (nothing here: planes 0
// and 1 sit on different channels with the default 5-channel geometry).
TEST(PipelineTest, DistinctPlanesOverlap) {
  SimClock clock;
  FlashPipeline p(FlashGeometry{}, &clock);
  clock.BeginRequest(0);
  const FlashPipeline::Completion c1 = p.Execute(Op::kRead, 0);
  clock.BeginRequest(0);
  const FlashPipeline::Completion c2 = p.Execute(Op::kRead, 1);
  EXPECT_EQ(c1.done_us, T::ReadCostUs());
  EXPECT_EQ(c2.done_us, T::ReadCostUs());  // fully parallel
  const uint64_t makespan = std::max(c1.done_us, c2.done_us);
  EXPECT_LT(makespan, 2 * T::ReadCostUs());
}

// The same two reads on the SAME plane serialize on the array: the second
// read's sense waits for the first, so it completes one page_read later.
TEST(PipelineTest, SamePlaneSerializesMedia) {
  SimClock clock;
  FlashPipeline p(FlashGeometry{}, &clock);
  clock.BeginRequest(0);
  const FlashPipeline::Completion c1 = p.Execute(Op::kRead, 0);
  clock.BeginRequest(0);
  const FlashPipeline::Completion c2 = p.Execute(Op::kRead, 0);
  EXPECT_EQ(c1.done_us, T::ReadCostUs());
  EXPECT_EQ(c2.done_us, T::ReadCostUs() + T::kPageReadUs);
}

// Planes sharing one channel overlap their array time but serialize their
// command+transfer slots: with 5 channels, planes 0 and 5 both use channel
// 0, so the second read starts its sense one transfer slot late.
TEST(PipelineTest, SharedChannelSerializesTransfersOnly) {
  SimClock clock;
  FlashPipeline p(FlashGeometry{}, &clock);
  const uint64_t xfer = T::kControlUs + T::kBusControlUs;
  clock.BeginRequest(0);
  p.Execute(Op::kRead, 0);
  clock.BeginRequest(0);
  const FlashPipeline::Completion c2 = p.Execute(Op::kRead, 5);
  EXPECT_EQ(c2.done_us, xfer + T::ReadCostUs());
  EXPECT_LT(c2.done_us, T::ReadCostUs() + T::kPageReadUs);
}

// A slow erase on one plane does not delay a foreground read on another:
// GC-style background work and host reads overlap.
TEST(PipelineTest, EraseOverlapsForegroundRead) {
  SimClock clock;
  FlashPipeline p(FlashGeometry{}, &clock);
  clock.BeginRequest(0);
  const FlashPipeline::Completion erase = p.Execute(Op::kErase, 0);
  clock.BeginRequest(0);
  const FlashPipeline::Completion read = p.Execute(Op::kRead, 1);
  EXPECT_EQ(erase.done_us, T::EraseCostUs());
  EXPECT_EQ(read.done_us, T::ReadCostUs());
}

// A GC copy with distinct source and destination planes holds each plane
// only for its own phase; a read on a third plane overlaps it entirely.
TEST(PipelineTest, CopySpansItsPlanesAndOverlapsOthers) {
  SimClock clock;
  FlashPipeline p(FlashGeometry{}, &clock);
  clock.BeginRequest(0);
  const FlashPipeline::Completion copy = p.ExecuteCopy(0, 1);
  EXPECT_EQ(copy.done_us, T::CopyCostUs());
  clock.BeginRequest(0);
  const FlashPipeline::Completion read = p.Execute(Op::kRead, 2);
  EXPECT_EQ(read.done_us, T::ReadCostUs());
}

// Same-time contenders acquire resources in program order, tie-broken by
// the event sequence number: issuing A then B at the same submit time
// always completes A's phases first, and seq is strictly increasing.
TEST(PipelineTest, TieBreakIsProgramOrder) {
  SimClock clock;
  FlashPipeline p(FlashGeometry{}, &clock);
  clock.BeginRequest(0);
  const FlashPipeline::Completion a = p.Execute(Op::kWrite, 4);
  clock.BeginRequest(0);
  const FlashPipeline::Completion b = p.Execute(Op::kWrite, 4);
  clock.BeginRequest(0);
  const FlashPipeline::Completion c = p.Execute(Op::kWrite, 4);
  EXPECT_LT(a.seq, b.seq);
  EXPECT_LT(b.seq, c.seq);
  EXPECT_LT(a.done_us, b.done_us);
  EXPECT_LT(b.done_us, c.done_us);
  EXPECT_EQ(b.done_us, a.done_us + T::kPageWriteUs);
}

// Identical issue sequences produce identical completion times: the engine
// has no hidden state beyond the resource frontiers.
TEST(PipelineTest, DeterministicAcrossRuns) {
  auto run = [] {
    SimClock clock;
    FlashPipeline p(FlashGeometry{}, &clock);
    uint64_t fingerprint = 0;
    for (uint32_t i = 0; i < 200; ++i) {
      clock.BeginRequest(i * 3);
      const FlashPipeline::Completion c =
          i % 7 == 0 ? p.ExecuteCopy(i % 10, (i + 3) % 10)
                     : p.Execute(i % 2 == 0 ? Op::kRead : Op::kWrite, i % 10);
      fingerprint = fingerprint * 1315423911u + c.done_us + c.seq;
    }
    return fingerprint;
  };
  EXPECT_EQ(run(), run());
}

// Control replies occupy only a channel; log I/O occupies only the log
// resource; neither touches any plane's array time.
TEST(PipelineTest, ControlAndLogAvoidPlanes) {
  SimClock clock;
  FlashPipeline p(FlashGeometry{}, &clock);
  clock.BeginRequest(0);
  const FlashPipeline::Completion erase = p.Execute(Op::kErase, 0);
  EXPECT_EQ(erase.done_us, T::EraseCostUs());
  clock.BeginRequest(0);
  EXPECT_EQ(p.ExecuteControl(T::kControlUs, /*channel_hint=*/1).done_us, T::kControlUs);
  clock.BeginRequest(0);
  EXPECT_EQ(p.ExecuteLog(25).done_us, 25u);
  // Log commits serialize among themselves.
  clock.BeginRequest(0);
  EXPECT_EQ(p.ExecuteLog(25).done_us, 50u);
}

// Power failure: Reset clears every frontier, so post-crash work is charged
// against an idle device (the crash lost whatever was in flight).
TEST(PipelineTest, ResetClearsFrontiers) {
  SimClock clock;
  FlashPipeline p(FlashGeometry{}, &clock);
  p.Execute(Op::kErase, 0);
  p.Reset();
  clock.Reset();
  const FlashPipeline::Completion c = p.Execute(Op::kRead, 0);
  EXPECT_EQ(c.start_us, 0u);
  EXPECT_EQ(c.done_us, T::ReadCostUs());
}

// FlashDevice charges every op through the pipeline: a serial sequence of
// device ops still advances the clock by exactly the legacy total.
TEST(PipelineTest, FlashDeviceClosedLoopTotalsUnchanged) {
  SimClock clock;
  FlashDevice dev(FlashGeometry{}, &clock);
  OobRecord oob;
  Ppn ppn = 0;
  ASSERT_EQ(dev.ProgramPage(0, oob, 1, &ppn), Status::kOk);
  ASSERT_EQ(dev.ReadPage(ppn, nullptr), Status::kOk);
  ASSERT_EQ(dev.ReadOob(ppn, nullptr), Status::kOk);
  Ppn dst = 0;
  ASSERT_EQ(dev.CopyPage(ppn, /*dst_block=*/1, &dst), Status::kOk);
  ASSERT_EQ(dev.EraseBlock(0), Status::kOk);
  const uint64_t expected = T::WriteCostUs() + T::ReadCostUs() + T::OobReadCostUs() +
                            T::CopyCostUs() + T::EraseCostUs();
  EXPECT_EQ(clock.now_us(), expected);
  EXPECT_EQ(dev.stats().busy_us, expected);
}

// --- OpenLoopQueue ---

// Depth 1 degenerates to the closed loop: each submit is the previous
// completion, so latencies and elapsed time match the serial chain.
TEST(OpenLoopQueueTest, DepthOneIsClosedLoop) {
  SimClock clock;
  OpenLoopQueue q(&clock, 1);
  for (int i = 0; i < 3; ++i) {
    const uint64_t submit = q.Begin();
    EXPECT_EQ(submit, static_cast<uint64_t>(i) * 77);
    clock.Advance(77);
    EXPECT_EQ(q.End(submit), 77u);
  }
  q.Drain();
  EXPECT_EQ(clock.now_us(), 3u * 77);
}

// Depth 2: the first two requests submit together; the third submits when
// the earliest in-flight completion frees its slot.
TEST(OpenLoopQueueTest, DepthTwoOverlapsSubmits) {
  SimClock clock;
  OpenLoopQueue q(&clock, 2);
  const uint64_t s1 = q.Begin();
  clock.Advance(100);
  EXPECT_EQ(q.End(s1), 100u);
  const uint64_t s2 = q.Begin();
  EXPECT_EQ(s2, 0u);  // second slot was free: submits at the same time
  clock.Advance(60);
  EXPECT_EQ(q.End(s2), 60u);
  const uint64_t s3 = q.Begin();
  EXPECT_EQ(s3, 60u);  // queue full: waits for the earliest completion
  clock.Advance(10);
  EXPECT_EQ(q.End(s3), 10u);
  q.Drain();
  EXPECT_EQ(clock.now_us(), 100u);  // drained to the latest completion
}

// Submits never go backwards even when a later slot frees earlier than a
// previous submit (the clamped issue floor).
TEST(OpenLoopQueueTest, SubmitsAreMonotone) {
  SimClock clock;
  OpenLoopQueue q(&clock, 2);
  uint64_t prev = 0;
  const uint64_t durations[] = {500, 10, 10, 10, 400, 10};
  for (const uint64_t d : durations) {
    const uint64_t submit = q.Begin();
    EXPECT_GE(submit, prev);
    prev = submit;
    clock.Advance(d);
    q.End(submit);
  }
}

}  // namespace
}  // namespace flashtier
