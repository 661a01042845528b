#include "skilc/compiler.h"

#include "skilc/emit.h"
#include "skilc/instantiate.h"
#include "skilc/parser.h"
#include "skilc/typecheck.h"

namespace skil::skilc {

CompileResult compile(const std::string& source) {
  Program typed = parse(source);
  typecheck(typed);
  CompileResult result;
  result.instantiated = instantiate(typed);
  result.c_code = emit_program(result.instantiated);
  return result;
}

}  // namespace skil::skilc
