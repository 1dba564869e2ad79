#include "tools/flashlint/lint.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <sstream>
#include <utility>

namespace flashtier {
namespace lint {
namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// One source line split into what the rules scan (code, with comments and
// string/char literals blanked out) and what the whitelist parser scans
// (comment text only).
struct SplitLine {
  std::string code;
  std::string comment;
};

// Strips comments and literals in one pass. Literal contents are replaced
// with spaces (the quotes remain, so token adjacency is preserved) — a
// forbidden token inside a string must not trigger a rule, and a directive
// inside a string must not whitelist one. Raw strings are not handled; the
// tree does not use them.
std::vector<SplitLine> SplitSource(const std::string& content) {
  std::vector<SplitLine> lines;
  lines.push_back({});
  bool in_block_comment = false;
  bool in_string = false;
  bool in_char = false;
  for (size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    if (c == '\n') {
      in_string = false;  // unterminated literal: don't poison the next line
      in_char = false;
      lines.push_back({});
      continue;
    }
    SplitLine& cur = lines.back();
    if (in_block_comment) {
      if (c == '*' && i + 1 < content.size() && content[i + 1] == '/') {
        in_block_comment = false;
        ++i;
      } else {
        cur.comment.push_back(c);
      }
      continue;
    }
    if (in_string || in_char) {
      const char quote = in_string ? '"' : '\'';
      if (c == '\\') {
        cur.code.push_back(' ');
        if (i + 1 < content.size() && content[i + 1] != '\n') {
          cur.code.push_back(' ');
          ++i;
        }
      } else if (c == quote) {
        cur.code.push_back(quote);
        in_string = in_char = false;
      } else {
        cur.code.push_back(' ');
      }
      continue;
    }
    if (c == '/' && i + 1 < content.size() && content[i + 1] == '/') {
      // Line comment: the rest of the line is comment text.
      const size_t eol = content.find('\n', i);
      const size_t end = eol == std::string::npos ? content.size() : eol;
      cur.comment.append(content, i + 2, end - i - 2);
      i = end - 1;
      continue;
    }
    if (c == '/' && i + 1 < content.size() && content[i + 1] == '*') {
      in_block_comment = true;
      ++i;
      continue;
    }
    if (c == '"') {
      // A digit or identifier char immediately before the quote means a
      // numeric/user-defined suffix situation we don't need; treat plainly.
      in_string = true;
      cur.code.push_back('"');
      continue;
    }
    if (c == '\'') {
      // Distinguish char literals from digit separators (1'000'000): a
      // separator is surrounded by identifier characters.
      const bool sep = i > 0 && IsIdentChar(content[i - 1]) && i + 1 < content.size() &&
                       IsIdentChar(content[i + 1]);
      if (sep) {
        cur.code.push_back(c);
      } else {
        in_char = true;
        cur.code.push_back('\'');
      }
      continue;
    }
    cur.code.push_back(c);
  }
  return lines;
}

// Finds `ident` in `code` as a whole word; returns npos if absent.
size_t FindIdent(const std::string& code, const std::string& ident, size_t from = 0) {
  size_t pos = code.find(ident, from);
  while (pos != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(code[pos - 1]);
    const size_t end = pos + ident.size();
    const bool right_ok = end >= code.size() || !IsIdentChar(code[end]);
    if (left_ok && right_ok) {
      return pos;
    }
    pos = code.find(ident, pos + 1);
  }
  return std::string::npos;
}

bool HasIdent(const std::string& code, const std::string& ident) {
  return FindIdent(code, ident) != std::string::npos;
}

// True when `ident` appears as a call (identifier followed by '(').
bool HasCall(const std::string& code, const std::string& ident) {
  size_t pos = FindIdent(code, ident);
  while (pos != std::string::npos) {
    size_t after = pos + ident.size();
    while (after < code.size() && code[after] == ' ') {
      ++after;
    }
    if (after < code.size() && code[after] == '(') {
      return true;
    }
    pos = FindIdent(code, ident, pos + ident.size());
  }
  return false;
}

std::string LastIdentIn(const std::string& expr) {
  std::string last;
  std::string cur;
  for (char c : expr) {
    if (IsIdentChar(c)) {
      cur.push_back(c);
    } else {
      if (!cur.empty()) {
        last = cur;
      }
      cur.clear();
    }
  }
  if (!cur.empty()) {
    last = cur;
  }
  return last;
}

// Per-file whitelist: rule -> set of suppressed lines (1-based), plus rules
// suppressed file-wide. "all" suppresses every rule.
struct Allowances {
  std::map<std::string, std::set<int>> lines;
  std::set<std::string> file_wide;

  bool Allowed(const std::string& rule, int line) const {
    if (file_wide.count(rule) != 0 || file_wide.count("all") != 0) {
      return true;
    }
    for (const char* key : {rule.c_str(), "all"}) {
      const auto it = lines.find(key);
      if (it != lines.end() && it->second.count(line) != 0) {
        return true;
      }
    }
    return false;
  }
};

Allowances ParseAllowances(const std::vector<SplitLine>& lines) {
  Allowances a;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& comment = lines[i].comment;
    size_t pos = comment.find("flashlint:");
    if (pos == std::string::npos) {
      continue;
    }
    pos += std::string("flashlint:").size();
    while (pos < comment.size() && comment[pos] == ' ') {
      ++pos;
    }
    const bool file_wide = comment.compare(pos, 11, "allow-file(") == 0;
    const bool one_line = !file_wide && comment.compare(pos, 6, "allow(") == 0;
    if (!file_wide && !one_line) {
      continue;
    }
    const size_t open = comment.find('(', pos);
    const size_t close = comment.find(')', open);
    if (open == std::string::npos || close == std::string::npos) {
      continue;
    }
    std::string rules = comment.substr(open + 1, close - open - 1);
    std::istringstream ss(rules);
    std::string rule;
    while (std::getline(ss, rule, ',')) {
      rule.erase(std::remove(rule.begin(), rule.end(), ' '), rule.end());
      if (rule.empty()) {
        continue;
      }
      if (file_wide) {
        a.file_wide.insert(rule);
      } else {
        // Suppress the directive's own line and the next one, covering both
        // the trailing-comment and the comment-above styles.
        const int line = static_cast<int>(i) + 1;
        a.lines[rule].insert(line);
        a.lines[rule].insert(line + 1);
      }
    }
  }
  return a;
}

// ---- wall-clock & random ----

const char* const kWallClockIdents[] = {"system_clock",   "steady_clock", "high_resolution_clock",
                                        "gettimeofday",   "clock_gettime", "timespec_get"};
const char* const kRandomCalls[] = {"rand", "srand", "drand48", "lrand48", "mrand48", "random"};

void CheckNondeterminismLine(const std::string& code, int line, const std::string& path,
                             const Allowances& allow, std::vector<Violation>* out) {
  for (const char* ident : kWallClockIdents) {
    if (HasIdent(code, ident) && !allow.Allowed("wall-clock", line)) {
      out->push_back({path, line, "wall-clock",
                      std::string(ident) + " reads host time; simulation code must use "
                                           "SimClock virtual time"});
      break;
    }
  }
  if (HasCall(code, "time") && !allow.Allowed("wall-clock", line)) {
    out->push_back({path, line, "wall-clock",
                    "time() reads host time; simulation code must use SimClock virtual time"});
  }
  if (HasIdent(code, "random_device") && !allow.Allowed("random", line)) {
    out->push_back({path, line, "random",
                    "std::random_device is unseeded entropy; use a seeded std::mt19937"});
    return;
  }
  for (const char* call : kRandomCalls) {
    if (HasCall(code, call) && !allow.Allowed("random", line)) {
      out->push_back({path, line, "random",
                      std::string(call) + "() is nondeterministic; use a seeded std::mt19937"});
      break;
    }
  }
}

// ---- unordered-iter ----

// Collects names declared in this file with a std::unordered_{map,set} type.
// Declarations in this tree are single-line; multi-line ones are skipped.
std::set<std::string> CollectUnorderedNames(const std::vector<SplitLine>& lines) {
  std::set<std::string> names;
  for (const SplitLine& sl : lines) {
    const std::string& code = sl.code;
    for (const char* type : {"unordered_map", "unordered_set"}) {
      size_t pos = FindIdent(code, type);
      while (pos != std::string::npos) {
        size_t i = pos + std::string(type).size();
        if (i < code.size() && code[i] == '<') {
          int depth = 0;
          for (; i < code.size(); ++i) {
            if (code[i] == '<') {
              ++depth;
            } else if (code[i] == '>') {
              if (--depth == 0) {
                ++i;
                break;
              }
            }
          }
          while (i < code.size() && (code[i] == ' ' || code[i] == '&' || code[i] == '*')) {
            ++i;
          }
          std::string name;
          while (i < code.size() && IsIdentChar(code[i])) {
            name.push_back(code[i++]);
          }
          if (!name.empty()) {
            names.insert(name);
          }
        }
        pos = FindIdent(code, type, pos + 1);
      }
    }
  }
  return names;
}

// Extracts the range expression of a range-for on this line, or "" if the
// line holds no (single-line) range-for.
std::string RangeForExpr(const std::string& code) {
  const size_t f = FindIdent(code, "for");
  if (f == std::string::npos) {
    return "";
  }
  const size_t open = code.find('(', f);
  if (open == std::string::npos) {
    return "";
  }
  int depth = 0;
  size_t colon = std::string::npos;
  size_t close = std::string::npos;
  for (size_t i = open; i < code.size(); ++i) {
    if (code[i] == '(') {
      ++depth;
    } else if (code[i] == ')') {
      if (--depth == 0) {
        close = i;
        break;
      }
    } else if (code[i] == ':' && depth == 1) {
      // Skip scope resolution (::) on either side.
      if ((i > 0 && code[i - 1] == ':') || (i + 1 < code.size() && code[i + 1] == ':')) {
        continue;
      }
      colon = i;
    }
  }
  if (colon == std::string::npos || close == std::string::npos) {
    return "";
  }
  return code.substr(colon + 1, close - colon - 1);
}

void CheckUnorderedIter(const std::vector<SplitLine>& lines, const std::string& path,
                        const Allowances& allow, std::vector<Violation>* out) {
  const std::set<std::string> unordered = CollectUnorderedNames(lines);
  if (unordered.empty()) {
    return;
  }
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string expr = RangeForExpr(lines[i].code);
    if (expr.empty()) {
      continue;
    }
    const std::string name = LastIdentIn(expr);
    const int line = static_cast<int>(i) + 1;
    if (unordered.count(name) != 0 && !allow.Allowed("unordered-iter", line)) {
      out->push_back({path, line, "unordered-iter",
                      "range-for over unordered container '" + name +
                          "' has implementation-defined order; iterate a sorted "
                          "view before feeding stats or persistence"});
    }
  }
}

// ---- commit-point ----

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Lines on which `AtCommitPoint(CommitPoint::kX` / `NotifyRecoveryPoint(
// RecoveryPoint::kX` fire, keyed by enumerator.
std::map<std::string, int> CollectFiredPoints(const std::vector<SplitLine>& lines,
                                              const char* dispatcher, const char* enum_name) {
  std::map<std::string, int> fired;
  const std::string prefix = std::string(enum_name) + "::k";
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& code = lines[i].code;
    if (FindIdent(code, dispatcher) == std::string::npos) {
      continue;
    }
    size_t pos = code.find(prefix);
    while (pos != std::string::npos) {
      size_t j = pos + prefix.size();
      std::string point = "k";
      while (j < code.size() && IsIdentChar(code[j])) {
        point.push_back(code[j++]);
      }
      if (fired.find(point) == fired.end()) {
        fired[point] = static_cast<int>(i) + 1;
      }
      pos = code.find(prefix, pos + 1);
    }
  }
  return fired;
}

struct RecoveryPairing {
  int start_line = 0;
  std::string start_path;
  bool done_fired = false;
};

void CheckCommitPoints(const std::vector<SplitLine>& lines, const std::string& path,
                       const Allowances& allow, RecoveryPairing* recovery,
                       std::vector<Violation>* out) {
  // Open-coded batch brackets. The PersistenceManager header holds the
  // definitions and the RAII scope; everyone else must use the scope, which
  // stays balanced when a FlashCheck crash hook throws mid-batch.
  if (!EndsWith(path, "ssc/persist.h")) {
    for (size_t i = 0; i < lines.size(); ++i) {
      const int line = static_cast<int>(i) + 1;
      for (const char* fn : {"BeginAtomicBatch", "EndAtomicBatch"}) {
        if (HasIdent(lines[i].code, fn) && !allow.Allowed("commit-point", line)) {
          out->push_back({path, line, "commit-point",
                          std::string(fn) + " open-codes an atomic batch; use "
                                            "PersistenceManager::AtomicBatchScope"});
        }
      }
    }
  }
  // Start/Done pairing for the points that bracket a durability window. A
  // file that fires the start of a window and never the end would leave the
  // crash explorer unable to model the window closing.
  const std::map<std::string, int> commits =
      CollectFiredPoints(lines, "AtCommitPoint", "CommitPoint");
  const std::pair<const char*, const char*> pairs[] = {
      {"kFlushStart", "kFlushDone"}, {"kCheckpointStart", "kCheckpointDone"}};
  for (const auto& [start, done] : pairs) {
    const auto it = commits.find(start);
    if (it != commits.end() && commits.find(done) == commits.end() &&
        !allow.Allowed("commit-point", it->second)) {
      out->push_back({path, it->second, "commit-point",
                      std::string("CommitPoint::") + start + " fires without CommitPoint::" +
                          done + " in the same file"});
    }
  }
  const std::map<std::string, int> recoveries =
      CollectFiredPoints(lines, "NotifyRecoveryPoint", "RecoveryPoint");
  if (recoveries.count("kStart") != 0 && recovery->start_line == 0) {
    recovery->start_line = recoveries.at("kStart");
    recovery->start_path = path;
  }
  if (recoveries.count("kDone") != 0) {
    recovery->done_fired = true;
  }
}

// ---- clock-advance ----

// Paths allowed to call SimClock::Advance directly: the clock's own
// definition, the FlashPipeline event engine built on it, and the disk tier
// (a single-actuator device the model keeps chain-serial by design,
// including its retry-session backoff). Flash-side code must charge device
// time through the pipeline (Execute/ExecuteControl/ExecuteLog) so phases on
// distinct planes can overlap under open-loop replay.
bool ClockAdvanceExempt(const std::string& path) {
  return EndsWith(path, "flash/timing.h") ||
         path.find("flash/pipeline.") != std::string::npos ||
         path.find("src/disk/") != std::string::npos;
}

void CheckClockAdvance(const std::vector<SplitLine>& lines, const std::string& path,
                       const Allowances& allow, std::vector<Violation>* out) {
  if (ClockAdvanceExempt(path)) {
    return;
  }
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& code = lines[i].code;
    size_t pos = FindIdent(code, "Advance");
    while (pos != std::string::npos) {
      // Only member calls (x.Advance( / x->Advance() — a free function or a
      // declaration of some other Advance is not a clock charge.
      const bool member =
          pos > 0 && (code[pos - 1] == '.' ||
                      (pos > 1 && code[pos - 1] == '>' && code[pos - 2] == '-'));
      size_t after = pos + std::string("Advance").size();
      while (after < code.size() && code[after] == ' ') {
        ++after;
      }
      const int line = static_cast<int>(i) + 1;
      if (member && after < code.size() && code[after] == '(' &&
          !allow.Allowed("clock-advance", line)) {
        out->push_back({path, line, "clock-advance",
                        "SimClock::Advance outside the event engine serializes device time; "
                        "charge through FlashPipeline (Execute/ExecuteControl/ExecuteLog) "
                        "so planes can overlap"});
        break;
      }
      pos = FindIdent(code, "Advance", pos + std::string("Advance").size());
    }
  }
}

}  // namespace

bool IsLintablePath(const std::string& path) {
  return EndsWith(path, ".h") || EndsWith(path, ".cc") || EndsWith(path, ".cpp");
}

std::string FormatViolation(const Violation& v) {
  std::ostringstream os;
  os << v.path << ":" << v.line << ": " << v.rule << ": " << v.message;
  return os.str();
}

std::vector<Violation> LintTree(const std::vector<FileInput>& files) {
  std::vector<Violation> out;
  RecoveryPairing recovery;
  for (const FileInput& file : files) {
    const std::vector<SplitLine> lines = SplitSource(file.content);
    const std::string& path = file.path;
    const Allowances allow = ParseAllowances(lines);
    for (size_t i = 0; i < lines.size(); ++i) {
      CheckNondeterminismLine(lines[i].code, static_cast<int>(i) + 1, path, allow, &out);
    }
    CheckUnorderedIter(lines, path, allow, &out);
    CheckCommitPoints(lines, path, allow, &recovery, &out);
    CheckClockAdvance(lines, path, allow, &out);
  }
  if (recovery.start_line != 0 && !recovery.done_fired) {
    out.push_back({recovery.start_path, recovery.start_line, "commit-point",
                   "RecoveryPoint::kStart fires but RecoveryPoint::kDone never does in the "
                   "linted set"});
  }
  return out;
}

}  // namespace lint
}  // namespace flashtier
