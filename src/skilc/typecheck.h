// Polymorphic type checking (paper section 2.2).
//
// "Our approach leads however to safer programs, as a polymorphic type
// checking is performed."  The checker infers a type for every
// expression by unification: polymorphic functions are freshened per
// use, partial applications receive the remaining-parameter function
// type (currying, section 2.1), operator sections get polymorphic
// operator types, and the pardata restriction (no pardata types as
// components of other types) is enforced inside unification.
#pragma once

#include <string>

#include "skilc/ast.h"
#include "support/error.h"

namespace skil::skilc {

/// A Skil type error, carrying a source span when known.  `bare()` is
/// the message without the "skil type error: line L:C:" prefix.
class TypeError : public support::Error {
 public:
  TypeError(const std::string& what, std::string bare, int line, int column)
      : support::Error(what, line, column), bare_(std::move(bare)) {}

  const std::string& bare() const { return bare_; }

 private:
  std::string bare_;
};

/// Annotates every expression in the program with its type.
/// Throws TypeError on ill-typed programs.
void typecheck(Program& program);

}  // namespace skil::skilc
