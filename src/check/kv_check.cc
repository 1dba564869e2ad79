#include "src/check/kv_check.h"

#include <algorithm>
#include <memory>
#include <unordered_set>
#include <vector>

#include "src/kv/kv_cache.h"
#include "src/util/json.h"
#include "src/util/rng.h"

namespace flashtier {

namespace {

enum class KvCheckOpKind : uint8_t { kSetDirty, kSetClean, kGet, kDelete, kFlush };

struct KvCheckOp {
  KvCheckOpKind kind = KvCheckOpKind::kGet;
  uint64_t key = 0;
  uint64_t token = 0;
  uint32_t size = 0;
};

// Deterministic mixed object workload: half the traffic on a hot eighth of
// the key space so overwrites, deletes of cached keys and slab compaction
// are exercised, with periodic flushes to cross seal commit points.
std::vector<KvCheckOp> BuildKvScript(uint64_t seed, uint32_t ops, uint64_t keys,
                                     uint64_t* next_token) {
  static constexpr uint32_t kSizes[] = {64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048};
  Rng rng(seed);
  std::vector<KvCheckOp> script;
  script.reserve(ops);
  const uint64_t hot = std::max<uint64_t>(1, keys / 8);
  for (uint32_t i = 0; i < ops; ++i) {
    KvCheckOp op;
    op.key = rng.Chance(0.5) ? rng.Below(hot) : rng.Below(keys);
    const uint64_t draw = rng.Below(100);
    if (draw < 20) {
      op.kind = KvCheckOpKind::kSetDirty;
    } else if (draw < 55) {
      op.kind = KvCheckOpKind::kSetClean;
    } else if (draw < 85) {
      op.kind = KvCheckOpKind::kGet;
    } else if (draw < 97) {
      op.kind = KvCheckOpKind::kDelete;
    } else {
      op.kind = KvCheckOpKind::kFlush;
    }
    if (op.kind == KvCheckOpKind::kSetDirty || op.kind == KvCheckOpKind::kSetClean) {
      op.size = kSizes[rng.Below(sizeof(kSizes) / sizeof(kSizes[0]))];
      op.token = (*next_token)++;
    }
    script.push_back(op);
  }
  return script;
}

// Last acknowledged state of one object key — the paper's guarantees mapped
// to objects. kAbsent covers acked deletes and policy-rejected sets: the
// key must read not-present, never any older version.
enum class KvShadowState : uint8_t { kNone, kDirty, kClean, kAbsent };

struct KvShadowEntry {
  KvShadowState state = KvShadowState::kNone;
  uint64_t token = 0;
};

// The operation in flight when power failed: both its before- and
// after-states are legal for that one key.
struct KvPending {
  bool active = false;
  KvCheckOpKind kind = KvCheckOpKind::kGet;
  uint64_t key = 0;
  uint64_t token = 0;
};

KvCacheConfig CacheConfig(const KvCheckOptions& o) {
  KvCacheConfig config;
  config.shards = o.device.shards;
  config.packing = o.packing;
  config.slab_pages = o.slab_pages;
  config.admission = o.device.admission;
  config.ssc = o.device.ssc;
  return config;
}

// The KV target: one KvCache (it slices the device across its shards
// itself), the shadow of acknowledged object operations and the set of keys
// an injected medium fault destroyed.
class KvTarget : public CrashTarget {
 public:
  explicit KvTarget(const KvCheckOptions& options)
      : options_(options), cache_(CacheConfig(options)), shadow_(options.keys) {
    // Objects whose slab pages an injected medium fault destroyed may
    // legitimately be missing afterwards — but must never read stale.
    for (uint32_t i = 0; i < cache_.shard_count(); ++i) {
      KvShard* shard = &cache_.shard(i);
      shard->ssc().set_data_loss_hook([shard, this](Lbn lbn) {
        const uint64_t seq = lbn / std::max<uint32_t>(1, shard->slab_pages());
        const auto it = shard->slabs().find(seq);
        if (it == shard->slabs().end()) {
          return;  // a drop the KV layer itself initiated
        }
        for (const KvSlot& slot : it->second.slots) {
          if (slot.live) {
            lost_.insert(slot.key);
          }
        }
      });
    }
  }

  std::vector<SscDevice*> Sscs() override {
    std::vector<SscDevice*> out;
    out.reserve(cache_.shard_count());
    for (uint32_t i = 0; i < cache_.shard_count(); ++i) {
      out.push_back(&cache_.shard(i).ssc());
    }
    return out;
  }

  void PowerFail() override { cache_.SimulateCrash(); }
  bool Recover() override { return IsOk(cache_.Recover()); }

  void PauseFaults(bool paused) override {
    for (SscDevice* ssc : Sscs()) {
      ssc->device_for_testing()->set_fault_injection_paused(paused);
    }
  }

  void Audit(const std::string& prefix, std::vector<std::string>* violations) override {
    const CheckReport r = InvariantChecker::CheckKv(cache_, options_.device.ssc.fault_plan.enabled);
    for (const InvariantViolation& v : r.violations) {
      violations->push_back(prefix + "invariant [" + v.invariant + "] " + v.detail);
    }
    if (r.violation_count > r.violations.size()) {
      violations->push_back(Fmt("%sinvariant: %llu further violations truncated", prefix.c_str(),
                               (unsigned long long)(r.violation_count - r.violations.size())));
    }
  }

  // Acknowledged operations move the shadow; pre-crash read-backs are
  // verified on the way.
  bool RunOps(uint64_t seed, uint32_t ops, std::vector<std::string>* violations) override {
    const std::vector<KvCheckOp> script = BuildKvScript(seed, ops, options_.keys, &next_token_);
    const bool faults_on = options_.device.ssc.fault_plan.enabled;
    for (const KvCheckOp& op : script) {
      KvShadowEntry& entry = shadow_[op.key];
      try {
        switch (op.kind) {
          case KvCheckOpKind::kSetDirty:
          case KvCheckOpKind::kSetClean: {
            const bool dirty = op.kind == KvCheckOpKind::kSetDirty;
            const Status st = cache_.Set(op.key, op.token, op.size, dirty);
            if (IsOk(st)) {
              // kOk covers both the admitted insert and the policy bypass
              // (data went around the cache); the key map tells them apart.
              const bool cached =
                  cache_.shard(cache_.ShardOf(op.key)).key_map().Contains(op.key);
              entry = cached ? KvShadowEntry{dirty ? KvShadowState::kDirty
                                                   : KvShadowState::kClean,
                                             op.token}
                             : KvShadowEntry{KvShadowState::kAbsent, 0};
            } else if (st != Status::kNoSpace && st != Status::kBackpressure) {
              violations->push_back(Fmt("set key %llu failed: %s",
                                        (unsigned long long)op.key, StatusName(st).data()));
            }
            break;
          }
          case KvCheckOpKind::kGet: {
            uint64_t token = 0;
            const Status st = cache_.Get(op.key, &token);
            if (IsOk(st)) {
              if (entry.state == KvShadowState::kDirty ||
                  entry.state == KvShadowState::kClean) {
                if (token != entry.token) {
                  violations->push_back(Fmt("kv-G2: live read of key %llu returned a "
                                            "stale token",
                                            (unsigned long long)op.key));
                }
              } else {
                violations->push_back(Fmt("kv-G3: key %llu hit after delete/reject",
                                          (unsigned long long)op.key));
              }
            } else if (st == Status::kNotPresent) {
              if (entry.state == KvShadowState::kDirty && lost_.count(op.key) == 0) {
                violations->push_back(Fmt("kv-G1: live read lost dirty key %llu",
                                          (unsigned long long)op.key));
              }
            } else if (faults_on) {
              lost_.insert(op.key);  // the read error retired the object
            } else {
              violations->push_back(Fmt("get key %llu failed: %s",
                                        (unsigned long long)op.key, StatusName(st).data()));
            }
            break;
          }
          case KvCheckOpKind::kDelete: {
            const Status st = cache_.Delete(op.key);
            if (IsOk(st)) {
              entry = {KvShadowState::kAbsent, 0};
            } else if (st == Status::kNotPresent) {
              if (entry.state == KvShadowState::kDirty && lost_.count(op.key) == 0) {
                violations->push_back(Fmt("kv-G1: delete found dirty key %llu missing",
                                          (unsigned long long)op.key));
              }
              entry = {KvShadowState::kAbsent, 0};
            } else if (st != Status::kBackpressure) {
              violations->push_back(Fmt("delete key %llu failed: %s",
                                        (unsigned long long)op.key, StatusName(st).data()));
            }
            break;
          }
          case KvCheckOpKind::kFlush:
            // kNoSpace from an all-dirty device is an honest refusal, and the
            // objects stay readable from the open slab — not a violation.
            (void)cache_.Flush();
            break;
        }
      } catch (const CrashInjected&) {
        pending_ = {true, op.kind, op.key, op.token};
        // An interrupted Set may still have landed durably while the OnAdmit
        // that clears any old reject record never ran; a real host rebuilds
        // policy state after a crash. Clear it so the rejected-key-absent
        // audit cannot indict a legitimately (re-)admitted key.
        if (op.kind == KvCheckOpKind::kSetDirty || op.kind == KvCheckOpKind::kSetClean) {
          cache_.shard(cache_.ShardOf(op.key)).policy().OnAdmit(op.key);
        }
        return true;
      }
      ++ops_executed_;
    }
    return false;
  }

  // Reads every key back from the recovered cache and verifies G1-G3 for
  // objects against the shadow of acknowledged operations, then settles the
  // pending op: both its outcomes were legal across the crash, so its entry
  // becomes what the cache actually recovered.
  void Sweep(std::vector<std::string>* violations) override {
    kv_at_sweep_ = cache_.AggregateStats();  // before the sweep pollutes get counters
    faults_at_sweep_ = MergeShards<FaultStats>(
        Sscs(), [](const SscDevice& s) { return &s.device().fault_stats(); });
    const bool faults_on = options_.device.ssc.fault_plan.enabled;
    const bool mutating = pending_.active && pending_.kind != KvCheckOpKind::kGet &&
                          pending_.kind != KvCheckOpKind::kFlush;
    for (uint64_t key = 0; key < options_.keys; ++key) {
      const KvShadowEntry entry = shadow_[key];
      uint64_t token = 0;
      const Status st = cache_.Get(key, &token);
      const bool is_pending = mutating && pending_.key == key;
      const bool pending_set = is_pending && pending_.kind != KvCheckOpKind::kDelete;
      if (IsOk(st)) {
        const bool matches_old = (entry.state == KvShadowState::kDirty ||
                                  entry.state == KvShadowState::kClean) &&
                                 token == entry.token;
        const bool matches_new = pending_set && token == pending_.token;
        if (!matches_old && !matches_new) {
          if (entry.state == KvShadowState::kAbsent) {
            violations->push_back(Fmt("kv-G3: deleted/rejected key %llu resurfaced",
                                      (unsigned long long)key));
          } else if (entry.state == KvShadowState::kNone) {
            violations->push_back(Fmt("kv: never-set key %llu reads present",
                                      (unsigned long long)key));
          } else {
            violations->push_back(Fmt("kv-G2: key %llu reads a stale token after "
                                      "recovery",
                                      (unsigned long long)key));
          }
        }
      } else if (st == Status::kNotPresent) {
        // A miss is legal for everything except an acknowledged dirty object
        // that was neither in flight nor destroyed by an injected fault (G1).
        if (entry.state == KvShadowState::kDirty && !is_pending && lost_.count(key) == 0) {
          violations->push_back(Fmt("kv-G1: dirty key %llu missing after recovery",
                                    (unsigned long long)key));
        }
      } else if (!(faults_on && (entry.state != KvShadowState::kDirty ||
                                 lost_.count(key) != 0 || is_pending))) {
        violations->push_back(Fmt("get key %llu errored after recovery: %s",
                                  (unsigned long long)key, StatusName(st).data()));
      }
    }
    if (mutating) {
      uint64_t token = 0;
      KvShadowEntry& entry = shadow_[pending_.key];
      if (!IsOk(cache_.Get(pending_.key, &token))) {
        entry = {KvShadowState::kAbsent, 0};
      } else if (token == pending_.token) {
        entry = {pending_.kind == KvCheckOpKind::kSetDirty ? KvShadowState::kDirty
                                                           : KvShadowState::kClean,
                 token};
      }
      // else: the old version survived; the entry already describes it.
    }
    pending_ = {};
  }

  uint64_t ops_executed() const { return ops_executed_; }
  const KvStats& kv_at_sweep() const { return kv_at_sweep_; }
  const FaultStats& faults_at_sweep() const { return faults_at_sweep_; }

 private:
  const KvCheckOptions& options_;
  KvCache cache_;
  std::vector<KvShadowEntry> shadow_;
  std::unordered_set<uint64_t> lost_;
  KvPending pending_;
  uint64_t next_token_ = 1;
  uint64_t ops_executed_ = 0;
  KvStats kv_at_sweep_;
  FaultStats faults_at_sweep_;
};

}  // namespace

std::string KvCheckReport::ToString() const {
  std::string out = soak ? "kv soak: " + SoakSummary(ops_executed) : "kv: " + ExploreSummary();
  if (faults.program_failures != 0 || faults.erase_failures != 0 ||
      faults.read_corruptions != 0) {
    out += Fmt("\n  faults injected: %llu program, %llu erase, %llu read",
               (unsigned long long)faults.program_failures,
               (unsigned long long)faults.erase_failures,
               (unsigned long long)faults.read_corruptions);
  }
  AppendSamples(&out);
  return out;
}

std::string KvCheckReport::ToJson() const {
  JsonLine line;
  line.Object("kv_check")
      .String("mode", soak ? "soak" : "explore")
      .Uint("commit_points", total_commit_points)
      .Uint("points_explored", points_explored)
      .Uint("recovery_points", total_recovery_points)
      .Uint("recovery_trials", recovery_trials)
      .Uint("cycles", cycles_run)
      .Uint("ops", ops_executed)
      .Uint("mid_workload_crashes", mid_workload_crashes)
      .Uint("quiescent_crashes", quiescent_crashes)
      .Uint("recovery_crashes", recovery_crashes)
      .Uint("violations", violation_count)
      .Uint("budget_exceeded", budget_exceeded)
      .Uint("max_recovery_us", max_recovery_us)
      .End()
      .Block("kv", kv)
      .Block("faults", faults);
  return line.Finish();
}

KvCheckHarness::KvCheckHarness(const KvCheckOptions& options) : options_(options) {}

KvCheckReport KvCheckHarness::Run() {
  KvCheckReport report;
  report.soak = options_.schedule.cycles > 0;
  std::unique_ptr<CrashTarget> target;
  if (report.soak) {
    target = std::make_unique<KvTarget>(options_);
    SoakCrashCycles(*target, options_.schedule, &report);
  } else {
    target = ExploreCrashPoints([this] { return std::make_unique<KvTarget>(options_); },
                                options_.schedule, &report);
  }
  const auto& kv = static_cast<const KvTarget&>(*target);
  report.ops_executed = kv.ops_executed();
  report.kv = kv.kv_at_sweep();
  report.faults = kv.faults_at_sweep();
  return report;
}

}  // namespace flashtier
