// The skilc pipeline: lex -> parse -> polymorphic type check ->
// translation by instantiation -> C emission (paper sections 2.2-2.4).
#pragma once

#include <string>

#include "skilc/ast.h"

namespace skil::skilc {

struct CompileResult {
  Program instantiated;  ///< first-order monomorphic translation
  std::string c_code;    ///< emitted C-like text of the translation
};

/// Runs the whole pipeline; throws ContractError (lexer, parser),
/// TypeError or InstantiationError, each carrying a source span, on
/// bad programs.
CompileResult compile(const std::string& source);

}  // namespace skil::skilc
