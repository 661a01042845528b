// The docs against the code: every `SKIL_NAME=` that README.md,
// DESIGN.md or a build-and-run note (SKIL_DOCS, listed by
// tests/CMakeLists.txt) writes must name a knob the code accepts, i.e.
// an environment variable that a std::getenv("SKIL_...") in src/
// reads, or a SKIL_* cache variable of CMakeLists.txt.  A retired knob
// left in the docs fails here, naming the file and line.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

namespace {

namespace fs = std::filesystem;

const fs::path kRoot = SKIL_SOURCE_DIR;

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Group 1 of every match of `pattern` in `text`, into `names`.
void collect(const std::string& text, const std::regex& pattern,
             std::set<std::string>& names) {
  for (std::sregex_iterator it(text.begin(), text.end(), pattern), end;
       it != end; ++it)
    names.insert((*it)[1]);
}

std::set<std::string> accepted_knobs() {
  std::set<std::string> names;
  const std::regex getenv_call(R"re(getenv\("(SKIL_[A-Z0-9_]+)"\))re");
  for (const auto& entry : fs::recursive_directory_iterator(kRoot / "src"))
    if (entry.is_regular_file())
      collect(read_file(entry.path()), getenv_call, names);
  collect(read_file(kRoot / "CMakeLists.txt"),
          std::regex(R"re(set\((SKIL_[A-Z0-9_]+)[^)]*\bCACHE\b)re"), names);
  return names;
}

TEST(DocsKnobs, EnvAssignmentsNameAcceptedKnobs) {
  const std::set<std::string> accepted = accepted_knobs();
  ASSERT_TRUE(accepted.count("SKIL_ENGINE") && accepted.count("SKIL_SANITIZE"))
      << "the scan of src/ and CMakeLists.txt found no knobs";
  const std::regex assignment("(SKIL_[A-Z0-9_]+)=");
  int uses = 0;
  std::istringstream docs(SKIL_DOCS);
  for (std::string doc; std::getline(docs, doc, ',');) {
    std::ifstream in(kRoot / doc);
    ASSERT_TRUE(in.good()) << "cannot read " << doc;
    int lineno = 0;
    for (std::string line; std::getline(in, line);) {
      ++lineno;
      std::set<std::string> names;
      collect(line, assignment, names);
      for (const std::string& name : names) {
        ++uses;
        EXPECT_TRUE(accepted.count(name))
            << doc << ":" << lineno << ": " << name
            << "= names no knob the code reads";
      }
    }
  }
  EXPECT_GT(uses, 0) << "no SKIL_NAME= in the docs";
}

}  // namespace
