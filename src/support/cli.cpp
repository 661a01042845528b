#include "support/cli.h"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>

#include "support/error.h"

namespace skil::support {

Cli::Cli(int argc, char** argv, std::vector<std::string> allowed)
    : program_(argc > 0 ? argv[0] : "") {
  auto permitted = [&](const std::string& name) {
    return std::find(allowed.begin(), allowed.end(), name) != allowed.end();
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    std::string name = arg, value = "true";
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0 &&
               permitted(name)) {
      // "--name value" form: consume the next token as the value unless
      // the flag is boolean-style (heuristic: a known flag always takes
      // the following token when one is present).
      value = argv[++i];
    }
    if (!permitted(name))
      throw ContractError("unknown command-line flag: --" + name);
    values_[name] = value;
  }
}

bool Cli::has(const std::string& name) const { return values_.count(name) > 0; }

std::string Cli::get(const std::string& name,
                     const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

namespace {

/// The largest value Cli::count accepts.
constexpr long kMaxCount = 1'000'000;

/// `value` of flag `name` as a whole integer in [lo, hi], else a
/// ContractError saying what the flag expects.
int parse_int(const std::string& name, const std::string& value, long lo,
              long hi, const std::string& expected) {
  char* end = nullptr;
  const long n = std::strtol(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0' || n < lo || n > hi)
    throw ContractError("--" + name + " expects " + expected + ", got '" +
                        value + "'");
  return static_cast<int>(n);
}

}  // namespace

int Cli::get_int(const std::string& name, int fallback) const {
  if (!has(name)) return fallback;
  return parse_int(name, get(name, ""), INT_MIN, INT_MAX, "an integer");
}

int Cli::count(const std::string& name, int fallback) const {
  if (!has(name)) return fallback;
  return parse_int(name, get(name, ""), 1, kMaxCount,
                   "an integer in [1, " + std::to_string(kMaxCount) + "]");
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::string program_name(const std::string& argv0) {
  return argv0.empty() ? "skil" : argv0.substr(argv0.rfind('/') + 1);
}

int report_cli_error(const std::string& argv0, const std::exception& err) {
  std::fprintf(stderr, "%s: %s\n", program_name(argv0).c_str(), err.what());
  return 2;
}

}  // namespace skil::support
