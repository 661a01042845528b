// The polymorphic type system of Skil (paper section 2.2).
//
// Types are C base types, named (possibly parameterised) types such as
// `array <$t>` or `list <int>`, pointers, function types (from
// higher-order parameter declarations and partial application), and
// type variables `$t`.  Type checking proceeds by unification; the
// resulting substitutions drive the monomorphisation step of the
// instantiation translation (paper section 2.4 / reference [1]).
//
// The paper's restriction is enforced during unification: "type
// variables appearing as components of other data types may not be
// instantiated with types introduced by the pardata construct", and
// pardatas may not be nested.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace skil::skilc {

struct Type;
using TypePtr = std::shared_ptr<const Type>;

struct Type {
  enum class Kind {
    kInt,
    kFloat,
    kVoid,
    kVar,       ///< $t
    kNamed,     ///< array <$t>, list <int>, plain struct names, ...
    kPointer,   ///< T*
    kFunction,  ///< params -> result
  };

  Kind kind = Kind::kInt;
  std::string name;             // kVar: "$t"; kNamed: the type name
  std::vector<TypePtr> params;  // kNamed: type arguments; kFunction: params
  TypePtr result;               // kFunction: result; kPointer: pointee

  static TypePtr make_int();
  static TypePtr make_float();
  static TypePtr make_void();
  static TypePtr make_var(std::string name);
  static TypePtr make_named(std::string name, std::vector<TypePtr> args = {});
  static TypePtr make_pointer(TypePtr pointee);
  static TypePtr make_function(std::vector<TypePtr> params, TypePtr result);
};

/// "$t"-style rendering, e.g. "int (float, $t)" for function types.
std::string type_to_string(const TypePtr& type);

/// A substitution from type-variable names to types.
using Subst = std::map<std::string, TypePtr>;

/// Applies a substitution (recursively) to a type.
TypePtr substitute(const TypePtr& type, const Subst& subst);

/// Unifies `a` with `b`, extending `subst`; returns false on mismatch.
/// `pardata_names` holds the type names introduced by pardata
/// constructs, for the paper's instantiation restriction: a type
/// variable occurring *inside* another type may not be bound to a
/// pardata type.
bool unify(const TypePtr& a, const TypePtr& b, Subst& subst,
           const std::set<std::string>& pardata_names, bool at_top = true);

/// Renames every type variable in `type` with a prefix, for making
/// each function's variables distinct before unification.
TypePtr freshen(const TypePtr& type, const std::string& prefix);

/// Collects the names of all type variables in a type.
void collect_vars(const TypePtr& type, std::set<std::string>& out);

/// True when the type contains no type variables.
bool is_monomorphic(const TypePtr& type);

}  // namespace skil::skilc
