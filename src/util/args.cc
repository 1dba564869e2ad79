#include "src/util/args.h"

#include <cstdlib>
#include <type_traits>

namespace flashtier {

ArgParser::ArgParser(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      ok_ = false;
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

std::string ArgParser::GetString(const std::string& name, const std::string& def) const {
  const auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

template <typename T>
T ArgParser::GetNumber(const std::string& name, T def, bool positive) {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return def;
  }
  const char* text = it->second.c_str();
  char* end = nullptr;
  T v{};
  if constexpr (std::is_integral_v<T>) {
    v = std::strtoll(text, &end, 0);
  } else {
    v = std::strtod(text, &end);
  }
  if (end == text || *end != '\0' || (positive && v <= 0)) {
    const char* what = std::is_integral_v<T> ? (positive ? "a positive integer" : "an integer")
                                             : (positive ? "a positive number" : "a number");
    ok_ = false;
    error_ = "--" + name + " must be " + what + ", got: " + it->second;
    return def;
  }
  return v;
}

int64_t ArgParser::GetInt(const std::string& name, int64_t def) {
  return GetNumber(name, def, /*positive=*/false);
}

double ArgParser::GetDouble(const std::string& name, double def) {
  return GetNumber(name, def, /*positive=*/false);
}

int64_t ArgParser::GetPositiveInt(const std::string& name, int64_t def) {
  return GetNumber(name, def, /*positive=*/true);
}

double ArgParser::GetPositiveDouble(const std::string& name, double def) {
  return GetNumber(name, def, /*positive=*/true);
}

std::vector<std::string> ArgParser::UnknownFlags(
    std::initializer_list<std::string_view> known) const {
  std::vector<std::string> unknown;
  for (const auto& kv : values_) {
    bool found = false;
    for (const std::string_view k : known) {
      if (kv.first == k) {
        found = true;
        break;
      }
    }
    if (!found) {
      unknown.push_back(kv.first);
    }
  }
  return unknown;  // values_ is an ordered map, so this is already sorted
}

bool ArgParser::GetBool(const std::string& name, bool def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return def;
  }
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

}  // namespace flashtier
