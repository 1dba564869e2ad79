// One-line JSON writer for the --stats-json records.
//
// A record is one JSON object on one line. Keys come in the order they are
// written; numbers are formatted as printf would (%llu for unsigned
// integers, %.Nf for doubles), so a record written here matches one built
// with the old hand-written format strings byte for byte. A counter block is
// always the whole stats struct, in declaration order (src/util/counters.h).
//
//   JsonLine line;
//   line.String("bench", "fig3").Uint("requests", n).Block("flash", flash);
//   line.Object("ftl").Counters(ftl).Double("retired_capacity_pct", pct, 2).End();
//   WriteLine(path, line.Finish());

#ifndef FLASHTIER_UTIL_JSON_H_
#define FLASHTIER_UTIL_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/util/counters.h"

namespace flashtier {

class JsonLine {
 public:
  JsonLine& Uint(std::string_view key, uint64_t value) { return Raw(key, std::to_string(value)); }
  JsonLine& Double(std::string_view key, double value, int decimals);
  JsonLine& String(std::string_view key, std::string_view value);
  JsonLine& Bool(std::string_view key, bool value) { return Raw(key, value ? "true" : "false"); }

  // Opens a nested object under `key`; End() closes the innermost one.
  JsonLine& Object(std::string_view key);
  JsonLine& End();

  // Every listed field of a counter struct, into the open object.
  template <typename Stats>
  JsonLine& Counters(const Stats& stats) {
    for (const CounterField<Stats>& f : Stats::kFields) {
      Uint(f.key, stats.*f.member);
    }
    return *this;
  }
  // A nested object holding exactly the struct's counters.
  template <typename Stats>
  JsonLine& Block(std::string_view key, const Stats& stats) {
    return Object(key).Counters(stats).End();
  }

  // Closes every open object and returns the line (no trailing newline).
  std::string Finish();

 private:
  // Writes `"key":text`, after a comma unless it is first in its object.
  JsonLine& Raw(std::string_view key, std::string_view text);

  std::string out_ = "{";
  int open_ = 1;  // objects not yet closed, the outermost included
  bool need_comma_ = false;
};

// Writes `line` and a newline to the file at `path`, appending to it or
// replacing it. Returns false when the file cannot be opened.
bool WriteLine(const std::string& path, std::string_view line, bool append = true);

}  // namespace flashtier

#endif  // FLASHTIER_UTIL_JSON_H_
