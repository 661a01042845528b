// Abstract syntax of the Skil subset.
//
// The instantiation translation clones and rewrites function bodies,
// so every node provides deep cloning.  Types annotated by the checker
// live directly on the nodes (TypePtr is shared and immutable).
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "skilc/types.h"

namespace skil::skilc {

/// A 1-based source position.  line == 0 means "no location known".
struct Span {
  int line = 0;
  int column = 0;

  bool known() const { return line > 0; }
};

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  enum class Kind {
    kIntLit,
    kFloatLit,
    kName,     ///< variable or function reference
    kCall,     ///< callee(args); may be a partial application
    kBinary,   ///< lhs op rhs
    kUnary,    ///< op operand (stored in lhs)
    kSection,  ///< the paper's (op) operator-to-function conversion
    kAssign,   ///< lhs = rhs
    kIndex,    ///< lhs[rhs]
  };

  Kind kind = Kind::kIntLit;
  long int_value = 0;
  double float_value = 0.0;
  std::string name;  ///< kName: identifier; kBinary/kUnary/kSection: operator
  ExprPtr lhs;
  ExprPtr rhs;
  ExprPtr callee;
  std::vector<ExprPtr> args;
  int line = 0;    ///< 1-based source position of the expression start
  int column = 0;

  Span span() const { return Span{line, column}; }

  /// Filled in by the type checker.
  TypePtr type;

  ExprPtr clone() const;
};

ExprPtr make_int_lit(long value);
ExprPtr make_float_lit(double value);
ExprPtr make_name(std::string name);
ExprPtr make_call(ExprPtr callee, std::vector<ExprPtr> args);
ExprPtr make_binary(std::string op, ExprPtr lhs, ExprPtr rhs);
ExprPtr make_unary(std::string op, ExprPtr operand);
ExprPtr make_section(std::string op);
ExprPtr make_assign(ExprPtr lhs, ExprPtr rhs);
ExprPtr make_index(ExprPtr base, ExprPtr index);

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

struct Stmt {
  enum class Kind {
    kExpr,
    kVarDecl,
    kIf,
    kWhile,
    kFor,
    kReturn,  ///< expr may be null (return;)
    kBlock,
  };

  Kind kind = Kind::kExpr;
  ExprPtr expr;  ///< kExpr / kReturn value / kIf / kWhile condition
  TypePtr decl_type;
  std::string decl_name;
  ExprPtr init;  ///< kVarDecl initialiser (may be null); kFor step expr
  StmtPtr for_init;
  std::vector<StmtPtr> body;
  std::vector<StmtPtr> else_body;
  int line = 0;    ///< 1-based source position of the statement start
  int column = 0;

  Span span() const { return Span{line, column}; }

  StmtPtr clone() const;
};

std::vector<StmtPtr> clone_stmts(const std::vector<StmtPtr>& stmts);

struct Param {
  TypePtr type;
  std::string name;
  int line = 0;  ///< position of the parameter name
  int column = 0;
  bool is_function() const { return type->kind == Type::Kind::kFunction; }
};

struct Function {
  TypePtr ret;
  std::string name;
  std::vector<Param> params;
  std::vector<StmtPtr> body;
  bool is_prototype = false;  ///< declaration without body (skeleton header)
  int line = 0;               ///< position of the function name
  int column = 0;

  /// A higher-order function: has at least one functional parameter.
  bool is_hof() const {
    for (const Param& param : params)
      if (param.is_function()) return true;
    return false;
  }

  /// The full function type (params -> ret).
  TypePtr type() const {
    std::vector<TypePtr> params_types;
    for (const Param& param : params) params_types.push_back(param.type);
    return Type::make_function(std::move(params_types), ret);
  }

  /// Polymorphic: mentions a type variable anywhere in the signature.
  bool is_polymorphic() const { return !is_monomorphic(type()); }

  Function clone() const;
};

struct PardataDecl {
  std::string name;
  std::vector<std::string> type_params;  ///< "$t1", ...
};

struct Program {
  std::vector<PardataDecl> pardatas;
  std::vector<Function> functions;

  std::set<std::string> pardata_names() const {
    std::set<std::string> names;
    for (const PardataDecl& decl : pardatas) names.insert(decl.name);
    return names;
  }

  /// Finds a function by name, preferring a definition over a
  /// prototype when both are present.
  const Function* find_function(const std::string& name) const {
    const Function* prototype = nullptr;
    for (const Function& fn : functions) {
      if (fn.name != name) continue;
      if (!fn.is_prototype) return &fn;
      prototype = &fn;
    }
    return prototype;
  }
};

}  // namespace skil::skilc
