// Minimal command-line flag parsing for bench and example binaries.
//
// Accepted syntax: --name=value, --name value, --flag (boolean true).
// Unknown flags and malformed integers raise ContractError naming the
// flag, so typos are caught instead of silently running a default or a
// bogus value; mains report it with report_cli_error and exit 2.
#pragma once

#include <exception>
#include <map>
#include <string>
#include <vector>

namespace skil::support {

/// Parsed command line.
class Cli {
 public:
  /// `spec` lists the allowed flag names (without leading dashes).
  Cli(int argc, char** argv, std::vector<std::string> allowed);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;
  /// Any int (e.g. a seed); throws ContractError on anything else.
  int get_int(const std::string& name, int fallback) const;
  /// A count or size in [1, 1'000'000]; throws ContractError naming
  /// that range on anything else.
  int count(const std::string& name, int fallback) const;
  bool get_bool(const std::string& name, bool fallback = false) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// The program's name for its messages: argv[0] without its directory
/// ("skil" for an empty argv[0]).
std::string program_name(const std::string& argv0);

/// Prints "<program>: <message>" to stderr, the program named by
/// program_name, and returns the exit status 2.
int report_cli_error(const std::string& argv0, const std::exception& err);

}  // namespace skil::support
