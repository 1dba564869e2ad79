// FlashLint: determinism & thread-safety lint for the FlashTier tree.
//
// The simulator's headline guarantee — bit-identical virtual-time metrics at
// any thread count, bit-identical recovery outcomes for a given crash point —
// only holds while no code path consults a nondeterministic source. The
// compiler cannot enforce that ("steady_clock is a perfectly good API"), so
// this tool does, as a token/AST-lite scanner over the source tree. Rules:
//
//   wall-clock      std::chrono::{system,steady,high_resolution}_clock,
//                   time(), gettimeofday, clock_gettime, timespec_get in
//                   simulation code. All simulated time must come from
//                   SimClock.
//   random          rand/srand/drand48/random() and std::random_device —
//                   unseeded entropy. Seeded std::mt19937 is fine and is the
//                   sanctioned workload-generation idiom.
//   unordered-iter  range-for over a std::unordered_{map,set} declared in the
//                   same file: iteration order is implementation-defined, so
//                   any stats/persistence derived from the walk diverges
//                   across stdlibs and hash seeds.
//   commit-point    durability-hook discipline: BeginAtomicBatch /
//                   EndAtomicBatch may not be open-coded outside the
//                   PersistenceManager (use AtomicBatchScope — it unwinds
//                   through crash-hook throws); a file firing
//                   CommitPoint::kFlushStart / kCheckpointStart must fire the
//                   matching *Done point; RecoveryPoint::kStart fired
//                   anywhere in a linted set requires RecoveryPoint::kDone.
//   clock-advance   SimClock::Advance called outside the clock, the
//                   FlashPipeline and the disk tier: flash-side time is
//                   charged through the pipeline so planes can overlap.
//
// A discarded Status is no lint rule: the compiler rejects it (Status is
// [[nodiscard]] and every build compiles with -Werror=unused-result).
//
// Whitelisting: a comment `flashlint: allow(<rule>): <reason>` suppresses
// <rule> on its own line and the next line; `flashlint: allow-file(<rule>):
// <reason>` suppresses it for the whole file. Directives are parsed from
// comment text only, so a string literal spelling the directive (this tool's
// own source, say) does not whitelist anything.

#ifndef FLASHTIER_TOOLS_FLASHLINT_LINT_H_
#define FLASHTIER_TOOLS_FLASHLINT_LINT_H_

#include <string>
#include <vector>

namespace flashtier {
namespace lint {

struct Violation {
  std::string path;
  int line = 0;  // 1-based
  std::string rule;
  std::string message;
};

struct FileInput {
  std::string path;
  std::string content;
};

// Lints the files as one tree: recovery-point pairing is judged across the
// whole set, every other rule file by file.
std::vector<Violation> LintTree(const std::vector<FileInput>& files);

// True for the extensions flashlint scans (.h, .cc, .cpp).
bool IsLintablePath(const std::string& path);

// "path:line: rule: message" — the grep/IDE-clickable form.
std::string FormatViolation(const Violation& v);

}  // namespace lint
}  // namespace flashtier

#endif  // FLASHTIER_TOOLS_FLASHLINT_LINT_H_
