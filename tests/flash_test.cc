// Unit tests for the NAND flash device model: geometry math, programming
// rules, erase/copy semantics, timing charges, wear accounting.

#include <gtest/gtest.h>

#include "src/flash/flash_device.h"
#include "src/flash/geometry.h"
#include "src/flash/timing.h"

namespace flashtier {
namespace {

FlashGeometry TinyGeometry() {
  FlashGeometry g;
  g.planes = 2;
  g.blocks_per_plane = 4;
  g.pages_per_block = 8;
  return g;
}

TEST(FlashGeometryTest, Table2Defaults) {
  FlashGeometry g;
  EXPECT_EQ(g.planes, 10u);
  EXPECT_EQ(g.blocks_per_plane, 256u);
  EXPECT_EQ(g.pages_per_block, 64u);
  EXPECT_EQ(g.page_size, 4096u);
  EXPECT_EQ(g.TotalBlocks(), 2560u);
  EXPECT_EQ(g.TotalPages(), 163'840u);
  EXPECT_EQ(g.EraseBlockBytes(), 256u * 1024u);  // 256 KB erase blocks
}

TEST(FlashGeometryTest, AddressRoundTrips) {
  const FlashGeometry g = TinyGeometry();
  for (PhysBlock b = 0; b < g.TotalBlocks(); ++b) {
    for (uint32_t p = 0; p < g.pages_per_block; ++p) {
      const Ppn ppn = g.FirstPpnOf(b) + p;
      EXPECT_EQ(g.BlockOf(ppn), b);
      EXPECT_EQ(g.PageOf(ppn), p);
    }
  }
  EXPECT_EQ(g.PlaneOf(0), 0u);
  EXPECT_EQ(g.PlaneOf(3), 0u);
  EXPECT_EQ(g.PlaneOf(4), 1u);
  EXPECT_EQ(g.BlockAt(1, 2), 6u);
}

TEST(FlashGeometryTest, ForCapacityScalesPlaneSizeNotPlaneCount) {
  const FlashGeometry g = FlashGeometry::ForCapacity(100ull << 30);  // 100 GB
  EXPECT_EQ(g.planes, 10u);  // paper scales plane size, Section 6.1
  const uint64_t bytes = g.TotalPages() * g.page_size;
  EXPECT_GE(bytes, 100ull << 30);
  // Rounding waste is under one block per plane.
  EXPECT_LT(bytes - (100ull << 30), uint64_t{10} * g.EraseBlockBytes());
}

TEST(FlashGeometryTest, ForCapacityTinyRequest) {
  const FlashGeometry g = FlashGeometry::ForCapacity(1);
  EXPECT_GE(g.blocks_per_plane, 1u);
  EXPECT_GE(g.TotalPages() * g.page_size, 1u);
}

TEST(FlashTimingsTest, Table2Latencies) {
  using T = FlashTimings;
  EXPECT_EQ(T::kPageReadUs, 65u);
  EXPECT_EQ(T::kPageWriteUs, 85u);
  EXPECT_EQ(T::kBlockEraseUs, 1000u);
  EXPECT_EQ(T::ReadCostUs(), 65u + 10u + 2u);
  EXPECT_EQ(T::WriteCostUs(), 85u + 10u + 2u);
  EXPECT_EQ(T::EraseCostUs(), 1010u);
  EXPECT_EQ(T::CopyCostUs(), 65u + 85u + 10u);  // no host bus transfer
}

class FlashDeviceTest : public ::testing::Test {
 protected:
  FlashDeviceTest() : device_(TinyGeometry(), &clock_) {}

  SimClock clock_;
  FlashDevice device_;
};

TEST_F(FlashDeviceTest, ProgramAssignsSequentialPages) {
  OobRecord oob;
  oob.lbn = 123;
  Ppn p0 = kInvalidPpn;
  Ppn p1 = kInvalidPpn;
  ASSERT_EQ(device_.ProgramPage(0, oob, 111, &p0), Status::kOk);
  ASSERT_EQ(device_.ProgramPage(0, oob, 222, &p1), Status::kOk);
  EXPECT_EQ(p0, 0u);
  EXPECT_EQ(p1, 1u);
  EXPECT_EQ(device_.write_pointer(0), 2u);
  EXPECT_EQ(device_.valid_pages(0), 2u);
}

TEST_F(FlashDeviceTest, ProgramFailsWhenBlockFull) {
  OobRecord oob;
  for (uint32_t i = 0; i < 8; ++i) {
    ASSERT_EQ(device_.ProgramPage(1, oob, i, nullptr), Status::kOk);
  }
  EXPECT_TRUE(device_.BlockFull(1));
  EXPECT_EQ(device_.ProgramPage(1, oob, 99, nullptr), Status::kNoSpace);
}

TEST_F(FlashDeviceTest, ReadReturnsTokenAndOob) {
  OobRecord oob;
  oob.lbn = 77;
  oob.flags = 1;
  Ppn ppn = kInvalidPpn;
  ASSERT_EQ(device_.ProgramPage(2, oob, 0xabcd, &ppn), Status::kOk);
  uint64_t token = 0;
  ASSERT_EQ(device_.ReadPage(ppn, &token), Status::kOk);
  const OobRecord& out = device_.oob(ppn);
  EXPECT_EQ(token, 0xabcdu);
  EXPECT_EQ(out.lbn, 77u);
  EXPECT_EQ(out.flags, 1u);
  EXPECT_GT(out.seq, 0u);  // device stamps a program sequence
}

TEST_F(FlashDeviceTest, ReadOfFreePageFails) {
  uint64_t token = 0;
  EXPECT_EQ(device_.ReadPage(0, &token), Status::kIoError);
}

TEST_F(FlashDeviceTest, SequenceNumbersAreMonotone) {
  OobRecord oob;
  Ppn a = kInvalidPpn;
  Ppn b = kInvalidPpn;
  ASSERT_EQ(device_.ProgramPage(0, oob, 1, &a), Status::kOk);
  ASSERT_EQ(device_.ProgramPage(3, oob, 2, &b), Status::kOk);
  EXPECT_LT(device_.oob(a).seq, device_.oob(b).seq);
}

TEST_F(FlashDeviceTest, MarkInvalidAndValidMaintainCounts) {
  OobRecord oob;
  Ppn ppn = kInvalidPpn;
  ASSERT_EQ(device_.ProgramPage(0, oob, 1, &ppn), Status::kOk);
  EXPECT_EQ(device_.valid_pages(0), 1u);
  ASSERT_EQ(device_.MarkInvalid(ppn), Status::kOk);
  EXPECT_EQ(device_.valid_pages(0), 0u);
  EXPECT_EQ(device_.MarkInvalid(ppn), Status::kInvalidArgument);  // already invalid
  ASSERT_EQ(device_.MarkValid(ppn), Status::kOk);
  EXPECT_EQ(device_.valid_pages(0), 1u);
  EXPECT_EQ(device_.MarkValid(ppn), Status::kInvalidArgument);  // already valid
}

TEST_F(FlashDeviceTest, EraseResetsBlockAndCountsWear) {
  OobRecord oob;
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(device_.ProgramPage(0, oob, i, nullptr), Status::kOk);
  }
  ASSERT_EQ(device_.EraseBlock(0), Status::kOk);
  EXPECT_EQ(device_.write_pointer(0), 0u);
  EXPECT_EQ(device_.valid_pages(0), 0u);
  EXPECT_EQ(device_.erase_count(0), 1u);
  EXPECT_TRUE(device_.BlockErased(0));
  EXPECT_EQ(device_.page_state(0), PageState::kFree);
  // The block is programmable again.
  EXPECT_EQ(device_.ProgramPage(0, oob, 9, nullptr), Status::kOk);
}

TEST_F(FlashDeviceTest, SkipPageLeavesHole) {
  OobRecord oob;
  ASSERT_EQ(device_.ProgramPage(0, oob, 1, nullptr), Status::kOk);
  ASSERT_EQ(device_.SkipPage(0), Status::kOk);
  Ppn ppn = kInvalidPpn;
  ASSERT_EQ(device_.ProgramPage(0, oob, 3, &ppn), Status::kOk);
  EXPECT_EQ(ppn, 2u);  // page 1 skipped
  EXPECT_EQ(device_.page_state(1), PageState::kFree);
  EXPECT_EQ(device_.valid_pages(0), 2u);
}

TEST_F(FlashDeviceTest, CopyPagePreservesContentAndInvalidatesSource) {
  OobRecord oob;
  oob.lbn = 55;
  Ppn src = kInvalidPpn;
  ASSERT_EQ(device_.ProgramPage(0, oob, 0x5555, &src), Status::kOk);
  const uint64_t src_seq = device_.oob(src).seq;
  Ppn dst = kInvalidPpn;
  ASSERT_EQ(device_.CopyPage(src, 1, &dst), Status::kOk);
  EXPECT_EQ(device_.page_state(src), PageState::kInvalid);
  uint64_t token = 0;
  ASSERT_EQ(device_.ReadPage(dst, &token), Status::kOk);
  const OobRecord& out = device_.oob(dst);
  EXPECT_EQ(token, 0x5555u);
  EXPECT_EQ(out.lbn, 55u);
  EXPECT_EQ(out.seq, src_seq);  // logical version unchanged by GC copy
  EXPECT_EQ(device_.stats().gc_copies, 1u);
}

TEST_F(FlashDeviceTest, CopyPageRejectsInvalidSource) {
  OobRecord oob;
  Ppn src = kInvalidPpn;
  ASSERT_EQ(device_.ProgramPage(0, oob, 1, &src), Status::kOk);
  ASSERT_EQ(device_.MarkInvalid(src), Status::kOk);
  EXPECT_EQ(device_.CopyPage(src, 1, nullptr), Status::kInvalidArgument);
}

TEST_F(FlashDeviceTest, TimingChargesMatchTable2) {
  using T = FlashTimings;
  OobRecord oob;
  Ppn ppn = kInvalidPpn;
  const uint64_t t0 = clock_.now_us();
  ASSERT_EQ(device_.ProgramPage(0, oob, 1, &ppn), Status::kOk);
  EXPECT_EQ(clock_.now_us() - t0, T::WriteCostUs());
  const uint64_t t1 = clock_.now_us();
  ASSERT_EQ(device_.ReadPage(ppn, nullptr), Status::kOk);
  EXPECT_EQ(clock_.now_us() - t1, T::ReadCostUs());
  const uint64_t t2 = clock_.now_us();
  ASSERT_EQ(device_.EraseBlock(1), Status::kOk);
  EXPECT_EQ(clock_.now_us() - t2, T::EraseCostUs());
  EXPECT_EQ(device_.stats().busy_us, clock_.now_us());
}

TEST_F(FlashDeviceTest, WearDiffTracksImbalance) {
  EXPECT_EQ(device_.MaxWearDiff(), 0u);
  ASSERT_EQ(device_.EraseBlock(0), Status::kOk);
  ASSERT_EQ(device_.EraseBlock(0), Status::kOk);
  ASSERT_EQ(device_.EraseBlock(0), Status::kOk);
  ASSERT_EQ(device_.EraseBlock(1), Status::kOk);
  EXPECT_EQ(device_.MaxWearDiff(), 3u);
  EXPECT_EQ(device_.stats().erases, 4u);
}

TEST_F(FlashDeviceTest, OutOfRangeOperationsRejected) {
  const Ppn bad_ppn = TinyGeometry().TotalPages();
  EXPECT_EQ(device_.ReadPage(bad_ppn, nullptr), Status::kInvalidArgument);
  EXPECT_EQ(device_.MarkInvalid(bad_ppn), Status::kInvalidArgument);
  EXPECT_EQ(device_.EraseBlock(TinyGeometry().TotalBlocks()), Status::kInvalidArgument);
  OobRecord oob;
  EXPECT_EQ(device_.ProgramPage(TinyGeometry().TotalBlocks(), oob, 1, nullptr),
            Status::kInvalidArgument);
}

}  // namespace
}  // namespace flashtier
