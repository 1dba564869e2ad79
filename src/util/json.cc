#include "src/util/json.h"

#include <cstdio>

namespace flashtier {

JsonLine& JsonLine::Raw(std::string_view key, std::string_view text) {
  out_ += need_comma_ ? ",\"" : "\"";
  out_ += key;
  out_ += "\":";
  out_ += text;
  need_comma_ = true;
  return *this;
}

JsonLine& JsonLine::Double(std::string_view key, double value, int decimals) {
  std::string text(static_cast<size_t>(std::snprintf(nullptr, 0, "%.*f", decimals, value)), '\0');
  std::snprintf(text.data(), text.size() + 1, "%.*f", decimals, value);
  return Raw(key, text);
}

JsonLine& JsonLine::String(std::string_view key, std::string_view value) {
  std::string text = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      text += '\\';
    }
    text += c;
  }
  return Raw(key, text + '"');
}

JsonLine& JsonLine::Object(std::string_view key) {
  Raw(key, "{");
  ++open_;
  need_comma_ = false;
  return *this;
}

JsonLine& JsonLine::End() {
  out_ += '}';
  --open_;
  need_comma_ = true;
  return *this;
}

std::string JsonLine::Finish() {
  while (open_ > 0) {
    End();
  }
  return out_;
}

bool WriteLine(const std::string& path, std::string_view line, bool append) {
  std::FILE* f = std::fopen(path.c_str(), append ? "a" : "w");
  if (f == nullptr) {
    return false;
  }
  std::fwrite(line.data(), 1, line.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return true;
}

}  // namespace flashtier
