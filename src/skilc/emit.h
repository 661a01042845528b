// C code emission for (instantiated) Skil programs.
//
// The Skil compiler "translates all functional features and inserts
// the parallel code ... into the application program, which can then
// be processed by a C compiler used as a back-end" (paper section
// 2.4).  This emitter renders the first-order, monomorphic program the
// instantiation pass produces as C-like text.  Instantiated pardata
// types print with mangled names, exactly as the paper shows:
// "floatarray and intarray stand for the implementations of
// array <float> and array <int>".
#pragma once

#include <string>

#include "skilc/ast.h"

namespace skil::skilc {

/// Mangled C name of a monomorphic type (array <float> -> floatarray).
std::string mangle_type(const TypePtr& type);

/// Renders a whole program as C-like source.  With `mangle` false,
/// declared types keep the Skil spelling (`array <float>` rather than
/// `floatarray`), which keeps the output inside the Skil language
/// itself (used by the round-trip tests).
std::string emit_program(const Program& program, bool mangle = true);

}  // namespace skil::skilc
