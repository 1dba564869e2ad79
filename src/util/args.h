// Minimal command-line flag parsing for the bench and example binaries.
//
// Supports `--name=value` and `--name value`. Malformed arguments (anything
// not shaped like a flag) fail the parser; tools that also want to reject
// unknown flag *names* — so a typo in a sweep script fails loudly instead of
// silently running defaults — validate with UnknownFlags().

#ifndef FLASHTIER_UTIL_ARGS_H_
#define FLASHTIER_UTIL_ARGS_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace flashtier {

class ArgParser {
 public:
  ArgParser(int argc, char** argv);

  // True if all arguments parsed as --name[=value] pairs.
  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  bool Has(const std::string& name) const { return values_.count(name) != 0; }

  std::string GetString(const std::string& name, const std::string& def) const;
  bool GetBool(const std::string& name, bool def) const;

  // Numeric flags. The whole value must parse (integers in base 0: decimal,
  // 0x hex or 0 octal), so "12x", "abc" or an empty value is refused rather
  // than read as a prefix or as 0: a refused value marks the parser failed
  // (ok() turns false and error() names the flag; the moral equivalent of
  // kInvalidArgument) and returns `def`. The positive variants, for sizes
  // and counts, also refuse zero and negative values. An absent flag returns
  // `def` unchecked. Callers check ok() after their last read.
  int64_t GetInt(const std::string& name, int64_t def);
  double GetDouble(const std::string& name, double def);
  int64_t GetPositiveInt(const std::string& name, int64_t def);
  double GetPositiveDouble(const std::string& name, double def);

  // Flag names that were supplied but appear nowhere in `known`, in sorted
  // order. Tools with a closed flag set call this once after construction
  // and exit with usage when the result is non-empty.
  std::vector<std::string> UnknownFlags(std::initializer_list<std::string_view> known) const;

 private:
  // The one strict numeric reader behind the four getters above.
  template <typename T>
  T GetNumber(const std::string& name, T def, bool positive);

  std::map<std::string, std::string> values_;
  bool ok_ = true;
  std::string error_;
};

}  // namespace flashtier

#endif  // FLASHTIER_UTIL_ARGS_H_
