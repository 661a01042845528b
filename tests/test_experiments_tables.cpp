// EXPERIMENTS.md's paper tables against the golden file: every "here"
// value of T1 and T2 must be what bench_table1_shpaths and
// bench_table2_gauss print at two decimals, computed with the benches'
// arithmetic from the default-mode (fuse off, coll auto) vtimes pinned
// in tests/goldens/vtimes.json.  After a deliberate vtime move
// (skil-goldens --write) this fails until the docs follow.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "support/json.h"

namespace {

using skil::support::json::Value;
using Key = std::tuple<std::string, std::string, int, int>;
using Rows = std::vector<std::vector<std::string>>;

std::string read_file(const char* path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Seconds of every pinned fuse=off coll=auto run, by (app, variant, p,
/// n).
std::map<Key, double> default_mode_seconds() {
  const Value doc = skil::support::json::parse(read_file(SKIL_VTIMES_JSON));
  std::map<Key, double> seconds;
  for (const Value& run : doc.at("runs").array) {
    if (run.find("variant") == nullptr || run.find("n") == nullptr ||
        run.at("fuse").string != "off" || run.at("coll").string != "auto")
      continue;
    seconds[{run.at("app").string, run.at("variant").string,
             static_cast<int>(run.num("p")), static_cast<int>(run.num("n"))}] =
        std::strtod(run.at("vtime_us").string.c_str(), nullptr) * 1e-6;
  }
  return seconds;
}

/// The table rows of the EXPERIMENTS.md section that starts with
/// `heading`, each cell cut to its first word ("2.12 [2.06]" -> "2.12").
Rows table_rows(const std::string& heading) {
  const std::string doc = read_file(SKIL_EXPERIMENTS_MD);
  const std::size_t begin = doc.find("\n" + heading);
  EXPECT_NE(begin, std::string::npos) << heading;
  std::istringstream section(
      doc.substr(begin, doc.find("\n## ", begin + 1) - begin));
  Rows rows;
  for (std::string line; std::getline(section, line);) {
    if (line.rfind("| ", 0) != 0) continue;
    std::istringstream cells(line.substr(1));
    rows.emplace_back();
    for (std::string cell; std::getline(cells, cell, '|');) {
      std::istringstream words(cell);
      std::string first;
      words >> first;
      rows.back().push_back(first);
    }
  }
  return rows;
}

std::string two_decimals(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

bool is_data_row(const std::vector<std::string>& row) {
  return !row.empty() && !row[0].empty() &&
         std::isdigit(static_cast<unsigned char>(row[0][0]));
}

// Columns: DPFL s, Skil s, DPFL/Skil, old C s; "–" where the paper has
// no DPFL run (the odd grids), which the file does not pin either.
TEST(ExperimentsTables, T1HereValuesMatchTheGoldenFile) {
  const std::map<Key, double> seconds = default_mode_seconds();
  const auto at = [&](const char* variant, int p) {
    const auto it = seconds.find({"shpaths", variant, p, 200});
    return it == seconds.end() ? -1.0 : it->second;
  };
  int checked = 0;
  for (const auto& row : table_rows("## T1")) {
    if (!is_data_row(row)) continue;
    const int q = std::atoi(row[0].c_str());  // "2×2"
    const double dpfl = at("dpfl", q * q);
    const double skil = at("skil", q * q);
    const double want[] = {dpfl, skil, dpfl < 0 ? -1.0 : dpfl / skil,
                           at("c_old", q * q)};
    ASSERT_EQ(row.size(), 5u) << row[0];
    for (int c = 0; c < 4; ++c) {
      const std::string text = want[c] < 0 ? "–" : two_decimals(want[c]);
      EXPECT_EQ(row[c + 1], text) << "T1 row " << row[0] << " column " << c;
      checked += want[c] >= 0;
    }
  }
  EXPECT_EQ(checked, 22);
}

// Three p x n tables in order: Skil s, DPFL/Skil, Skil/C.
TEST(ExperimentsTables, T2HereValuesMatchTheGoldenFile) {
  const std::map<Key, double> seconds = default_mode_seconds();
  int table = -1;
  int checked = 0;
  std::vector<int> ns;
  for (const auto& row : table_rows("## T2")) {
    if (!row.empty() && row[0] == "p") {  // "| p \ n | 64 | 128 | ..."
      ++table;
      ns.clear();
      for (std::size_t i = 1; i < row.size(); ++i)
        ns.push_back(std::atoi(row[i].c_str()));
    }
    if (!is_data_row(row)) continue;
    const int p = std::atoi(row[0].c_str());
    ASSERT_EQ(row.size(), ns.size() + 1) << "T2 row " << p;
    for (std::size_t i = 1; i < row.size(); ++i) {
      const int n = ns[i - 1];
      const double skil = seconds.at({"gauss", "skil", p, n});
      const double dpfl = seconds.at({"gauss", "dpfl", p, n});
      const double c = seconds.at({"gauss", "c", p, n});
      const double want =
          table == 0 ? skil : table == 1 ? dpfl / skil : skil / c;
      EXPECT_EQ(row[i], two_decimals(want))
          << "T2 table " << table << " p " << p << " n " << n;
      ++checked;
    }
  }
  EXPECT_EQ(table, 2);
  EXPECT_EQ(checked, 72);
}

}  // namespace
