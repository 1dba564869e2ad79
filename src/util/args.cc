#include "src/util/args.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <type_traits>
#include <utility>

namespace flashtier {
namespace {

// Parses all of `text` into *out: false when any of it is left over, when a
// boolean is not one of the six words, or when an integer does not fit T.
template <typename T>
bool ParseWhole(const std::string& text, T* out) {
  if constexpr (std::is_same_v<T, bool>) {
    *out = text == "true" || text == "1" || text == "yes";
    return *out || text == "false" || text == "0" || text == "no";
  } else {
    char* end = nullptr;
    bool fits = true;
    errno = 0;
    if constexpr (std::is_floating_point_v<T>) {
      *out = std::strtod(text.c_str(), &end);
    } else if (text.find('-') != std::string::npos) {  // strtoull negates "-1" to 2^64 - 1
      const long long v = std::strtoll(text.c_str(), &end, 0);
      fits = std::in_range<T>(v);
      *out = static_cast<T>(v);
    } else {
      const unsigned long long v = std::strtoull(text.c_str(), &end, 0);
      fits = std::in_range<T>(v);
      *out = static_cast<T>(v);
    }
    return fits && errno != ERANGE && end != text.c_str() && *end == '\0';
  }
}

// What a refused value must be, for the message.
template <typename T>
std::string Expected(bool positive) {
  if constexpr (std::is_same_v<T, bool>) {
    return "true, false, 1, 0, yes or no";
  } else if constexpr (std::is_integral_v<T>) {
    return "an integer from " + std::to_string(positive ? T{1} : std::numeric_limits<T>::min()) +
           " to " + std::to_string(std::numeric_limits<T>::max());
  }
  return positive ? "a positive number" : "a number";
}

}  // namespace

ArgParser::ArgParser(int argc, char** argv) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      error_ = "expected --flag, got: " + arg;
      return;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare boolean flag
    }
  }
}

const std::string* ArgParser::Find(const std::string& name) const {
  read_.insert(name);
  const auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

template <typename T>
T ArgParser::Read(const std::string& name, T def, Range range) const {
  const std::string* text = Find(name);
  if (text == nullptr) {
    return def;
  }
  T value{};
  // Every comparison with NaN is false, so both bounded ranges refuse it.
  if (ParseWhole(*text, &value) &&
      (range == Range::kAny ||
       (range == Range::kPositive ? value > T{} : value >= T{} && value <= T{1}))) {
    return value;
  }
  if (error_.empty()) {  // the first refusal is the one reported
    const std::string expected = range == Range::kFraction
                                     ? "a number from 0 to 1"
                                     : Expected<T>(range == Range::kPositive);
    error_ = "--" + name + " must be " + expected + ", got: " + *text;
  }
  return def;
}

template bool ArgParser::Read(const std::string&, bool, Range) const;
template uint32_t ArgParser::Read(const std::string&, uint32_t, Range) const;
template uint64_t ArgParser::Read(const std::string&, uint64_t, Range) const;
template int64_t ArgParser::Read(const std::string&, int64_t, Range) const;
template double ArgParser::Read(const std::string&, double, Range) const;

std::vector<std::string> ArgParser::Unread() const {
  std::vector<std::string> unread;
  for (const auto& [name, value] : values_) {
    if (read_.count(name) == 0) {
      unread.push_back(name);
    }
  }
  return unread;  // values_ is an ordered map, so this is already sorted
}

std::vector<std::string> ArgParser::UnknownFlags(
    std::initializer_list<std::string_view> known) const {
  read_.insert(known.begin(), known.end());
  return Unread();
}

std::string ArgParser::Refusal() const {
  std::string unread;
  for (const std::string& name : Unread()) {
    unread += (unread.empty() ? "unknown flag --" : ", --") + name;
  }
  return error_.empty() ? unread : error_;
}

void ArgParser::ExitOnBadFlags(const char* usage) const {
  if (const std::string refusal = Refusal(); !refusal.empty()) {
    std::fprintf(stderr, "%s: %s\n%s", program_.c_str(), refusal.c_str(), usage);
    std::exit(2);
  }
}

}  // namespace flashtier
