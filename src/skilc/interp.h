// A reference interpreter for instantiated Skil programs.
//
// It is the oracle for translation by instantiation (paper section
// 2.4): tests/test_skilc_interp compiles the paper's own .skil
// programs, runs the first-order, monomorphic output here over boxed
// values, and requires the bits the runtime library's skeletons
// compute for the same program on both execution engines.  A wrong
// instance, a dropped lifted argument or a misplaced section would
// change those bits.
//
// Supported surface: exactly what instantiation emits -- int/float
// scalars, array values with C reference semantics (an array argument
// aliases the caller's storage, so callee writes are visible), the
// C operators, calls to defined functions, and the four skeleton
// builtins by prototype (len, part_lower, part_upper, mk_index;
// instance-suffixed names like `len_1` resolve to the same builtins).
// Sections and partial applications never survive instantiation and
// are rejected.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "skilc/ast.h"
#include "support/error.h"

namespace skil::skilc {

class InterpError : public support::Error {
 public:
  explicit InterpError(const std::string& what) : support::Error(what) {}
};

/// A boxed runtime value.  Arrays share storage (C pointer
/// semantics); everything else is a plain scalar.
struct Value {
  enum class Kind { kVoid, kInt, kFloat, kArray };

  Kind kind = Kind::kVoid;
  long i = 0;    ///< kInt (also Index values: mk_index is the identity)
  double f = 0.0;  ///< kFloat
  std::shared_ptr<std::vector<Value>> array;  ///< kArray

  static Value unit() { return Value{}; }
  static Value of_int(long v) {
    Value value;
    value.kind = Kind::kInt;
    value.i = v;
    return value;
  }
  static Value of_float(double v) {
    Value value;
    value.kind = Kind::kFloat;
    value.f = v;
    return value;
  }
  static Value of_array(std::vector<Value> elems) {
    Value value;
    value.kind = Kind::kArray;
    value.array = std::make_shared<std::vector<Value>>(std::move(elems));
    return value;
  }
};

/// Bitwise equality: ints and sizes must match exactly, floats are
/// compared by bit pattern (so -0.0 != 0.0 and NaN == NaN, which is
/// what "bit-identical results" means).
bool value_bits_equal(const Value& a, const Value& b);

/// Calls `name` (exact instantiated name, or the pre-instantiation
/// root name -- roots keep their names, so `main_like` entry points
/// resolve exactly) with `args`, executing at most 50 million
/// evaluation steps before throwing InterpError (so a program that
/// does not terminate fails instead of hanging).
Value run_function(const Program& program, const std::string& name,
                   std::vector<Value> args);

}  // namespace skil::skilc
