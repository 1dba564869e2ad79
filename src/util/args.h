// Command-line flags for the bench, tool and example binaries.
//
// Supports `--name=value`, `--name value` and a bare `--name` (read as
// "true"). Anything not shaped like a flag fails the parser.
//
// The contract every binary keeps: it reads each flag it uses through the
// getters below, only on the path that uses the value, and then calls
// ExitOnBadFlags() once, before it replays anything. The parser records
// every name a getter (or Has) asked for, so that one call exits 2 and names
// the flag when
//   - a supplied flag was never read (a typo, or a flag this run ignores);
//   - a value does not parse whole ("12x", "abc" or an empty value);
//   - an integer does not fit the type it is read into (`--ops=-1` for an
//     unsigned count, `--ops=4294967297` for a uint32_t);
//   - a boolean is not one of true/false/1/0/yes/no;
//   - a value read through GetPositive is zero or negative;
//   - a value read through GetFraction lies outside [0, 1] or is NaN.
// An absent flag returns its default unchecked.

#ifndef FLASHTIER_UTIL_ARGS_H_
#define FLASHTIER_UTIL_ARGS_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace flashtier {

class ArgParser {
 public:
  ArgParser(int argc, char** argv);

  // Typed readers. T is bool, uint32_t, uint64_t, int64_t or double, the
  // type of the field the value lands in; integers parse in base 0
  // (decimal, 0x hex or 0 octal).
  template <typename T>
  T Get(const std::string& name, T def) const {
    return Read(name, def, Range::kAny);
  }
  // Sizes, counts and rates: zero and negative values are refused too.
  template <typename T>
  T GetPositive(const std::string& name, T def) const {
    return Read(name, def, Range::kPositive);
  }
  // Probabilities and fractions: a value outside [0, 1], or NaN, is refused.
  double GetFraction(const std::string& name, double def) const {
    return Read(name, def, Range::kFraction);
  }

  bool Has(const std::string& name) const { return Find(name) != nullptr; }
  std::string GetString(const std::string& name, const std::string& def) const {
    return Has(name) ? values_.at(name) : def;
  }
  bool GetBool(const std::string& name, bool def) const { return Get(name, def); }

  // The contract check, after the last read: the first refused value, or
  // else the supplied flags no getter asked for; empty when the run may go
  // ahead.
  std::string Refusal() const;
  // Prints "<program>: <Refusal()>" and `usage` to stderr and exits 2 when
  // Refusal() is not empty.
  void ExitOnBadFlags(const char* usage = "") const;

  // flashbench's reader (benchmark/ builds as its own project): one-line
  // forwards to the typed readers, and the closed-set check it makes instead
  // of ExitOnBadFlags.
  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  int64_t GetInt(const std::string& name, int64_t def) { return Get(name, def); }
  double GetDouble(const std::string& name, double def) { return Get(name, def); }
  int64_t GetPositiveInt(const std::string& name, int64_t def) { return GetPositive(name, def); }
  double GetPositiveDouble(const std::string& name, double def) { return GetPositive(name, def); }
  std::vector<std::string> UnknownFlags(std::initializer_list<std::string_view> known) const;

 private:
  // What a value must lie in besides its type's range.
  enum class Range { kAny, kPositive, kFraction };

  // The value of `name`, or null when absent; either way `name` is read.
  const std::string* Find(const std::string& name) const;
  // The one parse routine behind every typed reader; a refused value
  // returns `def` and keeps "--name must be <expected>, got: <text>".
  template <typename T>
  T Read(const std::string& name, T def, Range range) const;
  // Supplied flags never read, sorted.
  std::vector<std::string> Unread() const;

  std::string program_;  // argv[0], for messages
  std::map<std::string, std::string> values_;
  // Written by the const getters: what a run reads is part of its contract.
  mutable std::set<std::string> read_;
  mutable std::string error_;
};

}  // namespace flashtier

#endif  // FLASHTIER_UTIL_ARGS_H_
