// FlashPipeline: the plane-pipelined virtual-time event engine.
//
// Every flash operation decomposes into its FlashTimings phases — controller
// command dispatch, bus transfer, and media (array) time — and each phase
// occupies exactly one exclusive resource:
//
//   * the plane's channel (plane % channels) for command and transfer phases,
//   * the plane itself for array phases (read sense, program, erase),
//   * a dedicated log resource for persistence-log and checkpoint I/O (the
//     active log block lives on one plane, so log commits serialize among
//     themselves while overlapping foreground media on other planes).
//
// A phase starts no earlier than the request chain (SimClock::now_us) and no
// earlier than its resource frees up; chained phases of one operation start
// no earlier than the previous phase's end. The operation's completion time
// is its last phase's end, and the engine advances the chain there with
// SimClock::SyncTo. At queue depth 1 each request starts when the previous
// one completes, so no resource is ever contended, every wait is zero, and
// an operation's makespan equals its full service time ("advance the clock
// by the operation's cost") exactly. At queue depth N the chain rewinds
// between requests (SimClock::BeginRequest) and the resource frontiers carry
// the contention: array phases on distinct planes
// overlap, GC copies and erases overlap foreground reads, and shared
// channel/bus phases serialize.
//
// Determinism: operations acquire resources in program order (the order the
// FTLs issue them), so two operations contending for a resource at the same
// virtual time are ordered by their event sequence number — the (time,
// sequence) tie-break. The engine has no other state, so completion times
// are a pure function of the issue order and the resource frontiers.

#ifndef FLASHTIER_FLASH_PIPELINE_H_
#define FLASHTIER_FLASH_PIPELINE_H_

#include <cstdint>
#include <vector>

#include "src/flash/geometry.h"
#include "src/flash/timing.h"

namespace flashtier {

// One exclusive-use device resource in virtual time (a plane, a channel, the
// log region). Occupying it starts no earlier than the requested time and no
// earlier than the previous occupation's end.
class PipelineResource {
 public:
  // Returns the occupation's end time.
  uint64_t Occupy(uint64_t start_us, uint64_t duration_us) {
    const uint64_t begin = start_us > free_us_ ? start_us : free_us_;
    free_us_ = begin + duration_us;
    return free_us_;
  }
  uint64_t free_us() const { return free_us_; }
  void Reset() { free_us_ = 0; }

 private:
  uint64_t free_us_ = 0;
};

class FlashPipeline {
 public:
  enum class Op : uint8_t { kRead, kWrite, kErase, kCopy, kOobRead };

  // What the engine scheduled for one operation: when its first phase
  // started, when its last phase completed, and its event sequence number
  // (the deterministic tie-break for same-time contention).
  struct Completion {
    uint64_t start_us = 0;
    uint64_t done_us = 0;
    uint64_t seq = 0;
  };

  FlashPipeline(const FlashGeometry& geometry, SimClock* clock)
      : clock_(clock),
        planes_(geometry.planes == 0 ? 1 : geometry.planes),
        channels_(geometry.channels == 0 ? 1 : geometry.channels) {}

  // Schedules a media operation whose array phase runs on `plane`; advances
  // the request chain to the completion time. For kCopy, use ExecuteCopy.
  Completion Execute(Op op, uint32_t plane);

  // GC copy-back: command on the destination's channel, read-array phase on
  // the source plane, program-array phase on the destination plane. Distinct
  // planes overlap with other work on either; same plane degenerates to the
  // serial read+program.
  Completion ExecuteCopy(uint32_t src_plane, uint32_t dst_plane);

  // Pure controller/device-RAM work (lookup replies, exists scans). Occupies
  // the channel selected by `channel_hint % channels` so replies contend with
  // that channel's transfers but never with any plane's array time.
  Completion ExecuteControl(uint64_t us, uint64_t channel_hint);

  // Persistence-log and checkpoint I/O: serialized on the dedicated log
  // resource, overlapping all foreground planes.
  Completion ExecuteLog(uint64_t us);

  // Nominal uncontended service time of `op`: what Execute's makespan equals
  // when no resource is busy, as at queue depth 1.
  static uint64_t NominalCostUs(Op op);

  // Power failure: in-flight phases are lost with the device's RAM; every
  // resource frontier returns to idle.
  void Reset();

  uint64_t last_seq() const { return seq_; }

 private:
  PipelineResource& PlaneRes(uint32_t plane) { return planes_[plane % planes_.size()]; }
  PipelineResource& ChannelRes(uint32_t plane) { return channels_[plane % channels_.size()]; }

  SimClock* clock_;  // not owned
  std::vector<PipelineResource> planes_;
  std::vector<PipelineResource> channels_;
  PipelineResource log_;
  uint64_t seq_ = 0;
};

}  // namespace flashtier

#endif  // FLASHTIER_FLASH_PIPELINE_H_
