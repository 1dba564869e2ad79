// FlashLint self-test: the checker must flag every seeded violation in the
// fixture corpus (tests/lint_fixtures/), must pass every clean fixture, and
// must report the live tree (src/, tools/, bench/) as clean — the same
// invocation CI runs. FLASHTIER_SOURCE_DIR is injected by CMake so the test
// finds the tree from any build directory.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "tools/flashlint/lint.h"

namespace flashtier {
namespace lint {
namespace {

namespace fs = std::filesystem;

const std::map<std::string, std::string> kFixtureRules = {
    {"wall_clock", "wall-clock"},         {"random", "random"},
    {"unordered_iter", "unordered-iter"}, {"commit_point", "commit-point"},
    {"retry_backoff", "wall-clock"},      {"clock_advance", "clock-advance"},
};

fs::path SourceDir() { return fs::path(FLASHTIER_SOURCE_DIR); }
fs::path FixtureDir() { return SourceDir() / "tests" / "lint_fixtures"; }

FileInput ReadInput(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return FileInput{path.string(), ss.str()};
}

// Each fixture is linted as its own one-file tree: the bad corpus must not
// lend recovery-done fires to the clean corpus.
std::vector<Violation> LintOne(const fs::path& path) {
  return LintTree({ReadInput(path)});
}

// The rule a fixture named `<prefix>_bad.cc` / `<prefix>_clean.cc` seeds.
std::string ExpectedRule(const fs::path& path) {
  std::string stem = path.stem().string();
  for (const char* suffix : {"_bad", "_clean"}) {
    const size_t pos = stem.rfind(suffix);
    if (pos != std::string::npos && pos + std::string(suffix).size() == stem.size()) {
      stem.resize(pos);
    }
  }
  const auto it = kFixtureRules.find(stem);
  return it == kFixtureRules.end() ? "" : it->second;
}

std::vector<fs::path> FixturesEndingIn(const std::string& suffix) {
  std::vector<fs::path> out;
  for (const auto& entry : fs::directory_iterator(FixtureDir())) {
    const std::string stem = entry.path().stem().string();
    if (stem.size() >= suffix.size() &&
        stem.compare(stem.size() - suffix.size(), suffix.size(), suffix) == 0) {
      out.push_back(entry.path());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(FlashLintFixtures, CorpusCoversEveryRule) {
  std::map<std::string, int> bad, clean;
  for (const auto& p : FixturesEndingIn("_bad")) {
    ++bad[ExpectedRule(p)];
  }
  for (const auto& p : FixturesEndingIn("_clean")) {
    ++clean[ExpectedRule(p)];
  }
  for (const auto& [prefix, rule] : kFixtureRules) {
    EXPECT_GE(bad[rule], 1) << "no violating fixture for rule " << rule;
    EXPECT_GE(clean[rule], 1) << "no clean fixture for rule " << rule;
  }
}

// Every bad fixture must be flagged, and only for the rule it seeds — a
// cross-rule misfire would mean one rule's tokens leak into another's.
TEST(FlashLintFixtures, BadFixturesAreFlagged) {
  for (const auto& path : FixturesEndingIn("_bad")) {
    SCOPED_TRACE(path.string());
    const std::string rule = ExpectedRule(path);
    ASSERT_FALSE(rule.empty()) << "fixture name does not map to a rule";
    const std::vector<Violation> vs = LintOne(path);
    EXPECT_FALSE(vs.empty()) << "seeded violation was not detected";
    for (const Violation& v : vs) {
      EXPECT_EQ(v.rule, rule) << FormatViolation(v);
      EXPECT_GT(v.line, 0) << FormatViolation(v);
    }
  }
}

TEST(FlashLintFixtures, CleanFixturesPass) {
  for (const auto& path : FixturesEndingIn("_clean")) {
    SCOPED_TRACE(path.string());
    for (const Violation& v : LintOne(path)) {
      ADD_FAILURE() << "clean fixture flagged: " << FormatViolation(v);
    }
  }
}

// Directive handling beyond what the corpus shows: file-wide allows, and the
// guarantee that directives inside string literals are inert.
TEST(FlashLintDirectives, AllowFileSuppressesWholeFile) {
  const std::string content =
      "// flashlint: allow-file(random): fixture exercises entropy\n"
      "#include <cstdlib>\n"
      "int A() { return rand(); }\n"
      "int B() { return rand(); }\n";
  EXPECT_TRUE(LintTree({{"mem.cc", content}}).empty());
}

TEST(FlashLintDirectives, DirectiveInStringLiteralIsInert) {
  const std::string content =
      "#include <cstdlib>\n"
      "const char* kDoc = \"flashlint: allow(random): not a real directive\";\n"
      "int A() { return rand(); }\n";
  const std::vector<Violation> vs = LintTree({{"mem.cc", content}});
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "random");
  EXPECT_EQ(vs[0].line, 3);
}

TEST(FlashLintDirectives, ForbiddenTokenInStringLiteralIsIgnored) {
  const std::string content =
      "const char* kDoc = \"never call steady_clock or rand() here\";\n";
  EXPECT_TRUE(LintTree({{"mem.cc", content}}).empty());
}

// The acceptance bar for the whole PR: the shipped tree lints clean with the
// exact invocation CI uses (`flashlint src tools bench`).
TEST(FlashLintLiveTree, SrcToolsBenchAreClean) {
  std::vector<FileInput> files;
  for (const char* root : {"src", "tools", "bench"}) {
    const fs::path dir = SourceDir() / root;
    ASSERT_TRUE(fs::is_directory(dir)) << dir;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (entry.is_regular_file() && IsLintablePath(entry.path().string())) {
        files.push_back(ReadInput(entry.path()));
      }
    }
  }
  std::sort(files.begin(), files.end(),
            [](const FileInput& a, const FileInput& b) { return a.path < b.path; });
  ASSERT_GT(files.size(), 50u) << "tree walk found suspiciously few sources";
  for (const Violation& v : LintTree(files)) {
    ADD_FAILURE() << FormatViolation(v);
  }
}

}  // namespace
}  // namespace lint
}  // namespace flashtier
