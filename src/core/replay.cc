#include "src/core/replay.h"

#include <algorithm>
#include <vector>

namespace flashtier {

namespace {

// ReplayEngine's side of the shard loop (src/core/shard_replay.h): the
// manager calls and, when verifying, one oracle per shard. Routing is a pure
// function of the LBN, so the shards' oracles are disjoint.
class BlockServer {
 public:
  // Distributes a resumed oracle to the shards that own each LBN (reversing
  // Finish's merge). While verifying under fault injection, a dirty page can
  // be destroyed *inside* the cache — wear faults striking during GC copies
  // or write-back cleaning — without any host request observing an error:
  // the manager records the loss and later reads legitimately fall back to
  // the older disk copy. Each SSC's data-loss hook feeds its shard's lost
  // set, so those reads are exempt from stale-checking exactly like
  // host-visible read errors; the next successful write re-arms the oracle.
  // The hook fires synchronously inside the manager call, on the worker
  // replaying that shard.
  BlockServer(FlashTierSystem* system, bool verify, std::unordered_map<Lbn, uint64_t>* oracle,
              std::unordered_set<Lbn>* lost_blocks)
      : system_(system),
        verify_(verify),
        oracle_(oracle),
        lost_blocks_(lost_blocks),
        shards_(system->shard_count()) {
    if (!verify_) {
      return;
    }
    // flashlint: allow(unordered-iter): lookup tables, filled in any order
    for (const auto& [lbn, token] : *oracle_) {
      shards_[system_->ShardOf(lbn)].tokens.emplace(lbn, token);
    }
    // flashlint: allow(unordered-iter): lookup tables, filled in any order
    for (const Lbn lbn : *lost_blocks_) {
      shards_[system_->ShardOf(lbn)].lost.insert(lbn);
    }
    for (uint32_t i = 0; i < shards_.size(); ++i) {
      if (SscDevice* ssc = system_->shard(i).ssc.get()) {
        ssc->set_data_loss_hook([oracle = &shards_[i]](Lbn lbn) { oracle->Forget(lbn); });
      }
    }
  }
  ~BlockServer() {
    for (uint32_t i = 0; verify_ && i < shards_.size(); ++i) {
      if (SscDevice* ssc = system_->shard(i).ssc.get()) {
        ssc->set_data_loss_hook(nullptr);
      }
    }
  }
  BlockServer(const BlockServer&) = delete;
  BlockServer& operator=(const BlockServer&) = delete;

  uint32_t shard_count() const { return system_->shard_count(); }
  uint32_t ShardOf(const TraceRecord& record) const { return system_->ShardOf(record.lbn); }
  SimClock& Clock(uint32_t i) { return system_->shard(i).clock; }

  bool Serve(uint32_t i, const TraceRecord& record, uint64_t seq, bool measured, ReplayMetrics& m) {
    CacheManager& manager = *system_->shard(i).manager;
    ShardOracle& oracle = shards_[i];
    if (record.op == TraceOp::kWrite) {
      m.writes += measured ? 1 : 0;
      const uint64_t token = (record.lbn << 20) ^ seq;
      if (!IsOk(manager.Write(record.lbn, token))) {
        return false;
      }
      if (verify_) {
        oracle.tokens[record.lbn] = token;
        oracle.lost.erase(record.lbn);
      }
      return true;
    }
    m.reads += measured ? 1 : 0;
    uint64_t token = 0;
    if (!IsOk(manager.Read(record.lbn, &token))) {
      // A medium error (lost dirty block) is reported, not hidden; count it
      // apart from ordinary failures and stop oracle-checking the block —
      // the disk copy it falls back to is some older version by definition.
      ++m.read_errors;
      if (verify_) {
        oracle.Forget(record.lbn);
      }
      return false;
    }
    if (verify_ && oracle.lost.count(record.lbn) == 0 && token != oracle.Expected(record.lbn)) {
      ++m.stale_reads;
    }
    return true;
  }

  // Folds the shards' oracles back together so the state can seed a later
  // pass over the same long-lived system.
  void Finish(ReplayMetrics&) {
    if (!verify_) {
      return;
    }
    oracle_->clear();
    lost_blocks_->clear();
    for (const ShardOracle& shard : shards_) {
      oracle_->insert(shard.tokens.begin(), shard.tokens.end());
      lost_blocks_->insert(shard.lost.begin(), shard.lost.end());
    }
  }

 private:
  struct ShardOracle {
    std::unordered_map<Lbn, uint64_t> tokens;
    std::unordered_set<Lbn> lost;

    uint64_t Expected(Lbn lbn) const {
      const auto it = tokens.find(lbn);
      return it != tokens.end() ? it->second : DiskModel::OriginalToken(lbn);
    }
    void Forget(Lbn lbn) {
      tokens.erase(lbn);
      lost.insert(lbn);
    }
  };

  FlashTierSystem* system_;
  bool verify_;
  std::unordered_map<Lbn, uint64_t>* oracle_;
  std::unordered_set<Lbn>* lost_blocks_;
  std::vector<ShardOracle> shards_;
};

}  // namespace

ReplayMetrics ReplayEngine::Run(TraceSource& source) {
  if (options_.verify && options_.resume_verification != nullptr) {
    oracle_ = options_.resume_verification->oracle;
    lost_blocks_ = options_.resume_verification->lost_blocks;
  }
  // The warmup cut is a fraction of the trace.
  const uint64_t total = source.size_hint() != 0 ? source.size_hint() : ~uint64_t{0};
  const auto warmup = static_cast<uint64_t>(static_cast<double>(total) * options_.warmup_fraction);
  BlockServer server(system_, options_.verify, &oracle_, &lost_blocks_);
  metrics_ = ReplayOnShards<ReplayMetrics>(source, server, options_.threads, options_.queue_depth,
                                           warmup);
  return metrics_;
}

}  // namespace flashtier
