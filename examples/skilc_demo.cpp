// skilc: the Skil compiler front end as a command-line demo.
//
// Runs the pipeline of paper sections 2.2-2.4 -- parse, polymorphic
// type check, translation by instantiation, C emission -- either on a
// file given as argument or on the paper's built-in section 2.4
// example, and prints the resulting first-order monomorphic C.
//
//     ./skilc_demo [file.skil]
//
// It takes no flags; an unknown flag or a second file exits 2.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "skilc/compiler.h"
#include "support/cli.h"
#include "support/error.h"

namespace {

const char* kPaperExample = R"(// The paper's section 2.4 example.
pardata array <$t> implementation_hidden;

Index mk_index(int i);
int part_lower(array <$t> a);
int part_upper(array <$t> a);

// The map skeleton: a polymorphic higher-order function.
void array_map ($t2 map_f ($t1, Index), array <$t1> a, array <$t2> b) {
  int i;
  for (i = part_lower(a); i < part_upper(a); i = i + 1)
    b[i] = map_f(a[i], mk_index(i));
}

// The customizing function; its first argument is supplied by
// partial application at the call site.
int above_thresh (float thresh, float elem, Index ix) {
  return elem >= thresh;
}

void threshold_all (float t, array <float> A, array <int> B) {
  array_map(above_thresh(t), A, B);
}
)";

}  // namespace

int main(int argc, char** argv) try {
  const skil::support::Cli cli(argc, argv, {});
  const std::vector<std::string>& files = cli.positional();
  if (files.size() > 1)
    throw skil::support::ContractError(
        "expects at most one .skil file, got " + std::to_string(files.size()));

  std::string source;
  if (!files.empty()) {
    const char* path = files[0].c_str();
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", path);
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    source = buffer.str();
    std::printf("// input: %s\n\n", path);
  } else {
    source = kPaperExample;
    std::printf("// no input file given -- compiling the paper's "
                "section 2.4 example\n\n");
  }

  std::printf("---- Skil source "
              "------------------------------------------------\n%s\n",
              source.c_str());
  try {
    const skil::skilc::CompileResult result = skil::skilc::compile(source);
    std::printf("---- after type checking and translation by instantiation "
                "------\n%s",
                result.c_code.c_str());
    std::printf("// %zu function(s) in the first-order monomorphic "
                "output\n",
                result.instantiated.functions.size());
  } catch (const skil::support::Error& e) {
    std::fprintf(stderr, "skilc: %s\n", e.what());
    return 1;
  }
  return 0;
} catch (const skil::support::ContractError& err) {
  return skil::support::report_cli_error(argv[0], err);
}
