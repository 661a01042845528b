// skil-goldens: the full Table-2 grid's virtual times, pinned as data.
//
//   skil-goldens --check [--file=table2.json]
//   skil-goldens --write [--file=table2.json]
//
// Recomputes all 144 runs behind paper Table 2 -- Gauss as Skil, DPFL
// and hand-written C, p in {4, 16, 32, 64} x n in {64, ..., 640}, no
// pivoting, each with fusion off and on -- under the collective mode
// the file records, each (fuse, p, n) cell in a forked worker, one
// per hardware thread (bench/gauss_sweep.h).  Every run's final
// virtual time is stored as a hexfloat string, so a 1-ulp drift is a
// difference, together with its messages sent.
//
// --check compares bit for bit and prints every moved run as
// old -> new with its relative change; --write rewrites the file, which
// makes a deliberate vtime move one command and a diff of the moved runs.
//
// Exit status: 0 all runs match (or the file was written), 1 some run
// moved or the file lacks one, 2 usage or input failure.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gauss_sweep.h"
#include "parix/charge_tape.h"
#include "parix/coll.h"
#include "support/cli.h"
#include "support/error.h"
#include "support/json.h"

namespace {

using namespace skil;

constexpr std::uint64_t kSeed = 19960528;
constexpr const char* kVariants[] = {"skil", "dpfl", "c"};
constexpr parix::FuseMode kFuses[] = {parix::FuseMode::kOff,
                                      parix::FuseMode::kOn};

/// One (fuse, p, n) cell of the grid: its three variants' runs.
struct Cell {
  parix::FuseMode fuse;
  bench::GaussCell runs;
};

/// The full grid under both fuse modes, one forked cell per hardware
/// thread at a time (each fork inherits the fuse mode set before it).
std::vector<Cell> run_grid() {
  const int jobs =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::vector<Cell> cells;
  for (parix::FuseMode fuse : kFuses) {
    parix::set_default_fuse_mode(fuse);
    for (const bench::GaussCell& runs : bench::run_gauss_grid_jobs(
             bench::paper_ns(false), bench::paper_ps(), kSeed, jobs))
      cells.push_back(Cell{fuse, runs});
  }
  return cells;
}

std::string hexfloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// The run's key as the file and the messages spell it.
std::string run_key(const Cell& cell, int v) {
  return std::string(kVariants[v]) + " p=" + std::to_string(cell.runs.p) +
         " n=" + std::to_string(cell.runs.n) +
         " fuse=" + std::string(parix::fuse_mode_name(cell.fuse));
}

void write_file(const std::string& path, parix::CollMode coll,
                const std::vector<Cell>& cells) {
  std::ofstream out(path);
  SKIL_REQUIRE(out.good(), "cannot write '" + path + "'");
  out << "{\n  \"about\": \"Paper Table 2 (Gauss, no pivoting, seed "
      << kSeed << "): final virtual time (us, hexfloat) and messages sent"
      << " of every run; regenerate with skil-goldens --write\",\n"
      << "  \"coll\": \"" << parix::coll_mode_name(coll) << "\",\n"
      << "  \"runs\": [\n";
  for (std::size_t c = 0; c < cells.size(); ++c)
    for (int v = 0; v < 3; ++v) {
      const Cell& cell = cells[c];
      out << "    {\"variant\": \"" << kVariants[v]
          << "\", \"p\": " << cell.runs.p << ", \"n\": " << cell.runs.n
          << ", \"fuse\": \"" << parix::fuse_mode_name(cell.fuse)
          << "\", \"vtime_us\": \"" << hexfloat(cell.runs.vtime_us[v])
          << "\", \"messages\": " << cell.runs.messages[v] << "}"
          << (c + 1 == cells.size() && v == 2 ? "\n" : ",\n");
    }
  out << "  ]\n}\n";
}

/// Compares the grid with the file's runs; returns how many moved or
/// are missing from either side.
int check(const support::json::Value& doc, const std::vector<Cell>& cells) {
  const auto& runs = doc.at("runs").array;
  int bad = 0;
  std::size_t matched = 0;
  for (const Cell& cell : cells)
    for (int v = 0; v < 3; ++v) {
      const std::string key = run_key(cell, v);
      const support::json::Value* pinned = nullptr;
      for (const auto& run : runs)
        if (run.at("variant").string == kVariants[v] &&
            run.num("p") == cell.runs.p && run.num("n") == cell.runs.n &&
            run.at("fuse").string == parix::fuse_mode_name(cell.fuse))
          pinned = &run;
      if (pinned == nullptr) {
        std::printf("missing: %s is not in the file\n", key.c_str());
        ++bad;
        continue;
      }
      ++matched;
      const std::string& text = pinned->at("vtime_us").string;
      const double old_us = std::strtod(text.c_str(), nullptr);
      const auto old_msgs =
          static_cast<std::uint64_t>(pinned->num("messages"));
      const double new_us = cell.runs.vtime_us[v];
      const std::uint64_t new_msgs = cell.runs.messages[v];
      if (text == hexfloat(new_us) && old_msgs == new_msgs) continue;
      ++bad;
      std::printf(
          "moved: %s  vtime %s -> %s us (%.17g -> %.17g s, %+.3e rel)  "
          "messages %llu -> %llu\n",
          key.c_str(), text.c_str(), hexfloat(new_us).c_str(), old_us * 1e-6,
          new_us * 1e-6, (new_us - old_us) / old_us,
          static_cast<unsigned long long>(old_msgs),
          static_cast<unsigned long long>(new_msgs));
    }
  if (matched != runs.size()) {
    std::printf("extra: the file holds %zu runs the grid does not make\n",
                runs.size() - matched);
    ++bad;
  }
  return bad;
}

}  // namespace

int main(int argc, char** argv) try {
  const support::Cli cli(argc, argv, {"check", "write", "file"});
  const bool write = cli.get_bool("write");
  SKIL_REQUIRE(write != cli.get_bool("check"),
               "give exactly one of --check and --write");
  const std::string path = cli.get("file", "tests/goldens/table2.json");

  // The file pins its collective mode; --write pins the default one.
  support::json::Value doc;
  parix::CollMode coll = parix::default_coll_mode();
  if (!write) {
    std::ifstream in(path);
    SKIL_REQUIRE(in.good(), "cannot read '" + path + "'");
    std::stringstream text;
    text << in.rdbuf();
    doc = support::json::parse(text.str());
    coll = parix::parse_coll_mode(doc.at("coll").string);
  }
  parix::set_default_coll_mode(coll);

  const std::vector<Cell> cells = run_grid();
  if (write) {
    write_file(path, coll, cells);
    std::printf("wrote %zu runs to %s\n", cells.size() * 3, path.c_str());
    return 0;
  }
  const int bad = check(doc, cells);
  if (bad == 0) {
    std::printf("ok: all %zu runs match %s bit for bit\n", cells.size() * 3,
                path.c_str());
    return 0;
  }
  std::printf("%d runs differ from %s\n", bad, path.c_str());
  return 1;
} catch (const skil::support::ContractError& err) {
  return skil::support::report_cli_error(argv[0], err);
}
