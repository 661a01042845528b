// skil-prof: text dashboard for SKIL_PROF scheduler reports.
//
//   skil-prof metrics.json
//
// Reads a metrics JSON file written by parix::write_metrics_json for a
// run with SKIL_PROF=counters or SKIL_PROF=sampled and renders the
// host-scheduler dashboard: per-carrier utilization, steal success
// rate, settlement coverage and buffer-pool hit rate.
//
// Exit status: 0 ok, 2 usage/input failure (missing file, metrics
// without a scheduler object, malformed JSON).
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "parix/prof_report.h"
#include "support/error.h"
#include "support/json.h"

int main(int argc, char** argv) {
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!arg.empty() && arg[0] == '-') {
      std::cerr << "skil-prof: unknown flag '" << arg << "'\n";
      return 2;
    } else if (path.empty()) {
      path = arg;
    } else {
      std::cerr << "skil-prof: more than one input file\n";
      return 2;
    }
  }
  if (path.empty()) {
    std::cerr << "usage: skil-prof metrics.json\n";
    return 2;
  }

  std::ifstream in(path);
  if (!in) {
    std::cerr << "skil-prof: cannot open '" << path << "'\n";
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();

  try {
    const skil::support::json::Value metrics =
        skil::support::json::parse(buffer.str());
    skil::parix::render_prof_report(metrics, std::cout);
  } catch (const std::exception& err) {
    std::cerr << "skil-prof: " << path << ": " << err.what() << '\n';
    return 2;
  }
  return 0;
}
