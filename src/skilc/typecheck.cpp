#include "skilc/typecheck.h"

#include <map>

#include "support/error.h"

namespace skil::skilc {

namespace {

class Checker {
 public:
  explicit Checker(Program& program)
      : program_(program), pardata_names_(program.pardata_names()) {}

  /// Checks every function; the first failure propagates as
  /// TypeError.
  void run() {
    for (const Function& fn : program_.functions) {
      if (globals_.count(fn.name) != 0 && !fn.is_prototype &&
          !program_.find_function(fn.name)->is_prototype) {
        throw TypeError("skil type error: line " + std::to_string(fn.line) +
                            ":" + std::to_string(fn.column) +
                            ": duplicate function definition: " + fn.name,
                        "duplicate function definition: " + fn.name, fn.line,
                        fn.column);
      }
      globals_[fn.name] = fn.type();
    }
    for (Function& fn : program_.functions)
      if (!fn.is_prototype) check_function(fn);
  }

 private:
  [[noreturn]] void fail(Span span, const std::string& message) {
    std::string where;
    if (span.known())
      where = "line " + std::to_string(span.line) + ":" +
              std::to_string(span.column) + ": ";
    throw TypeError("skil type error: " + where + message, message, span.line,
                    span.column);
  }

  TypePtr fresh_var() {
    return Type::make_var("$_u" + std::to_string(next_fresh_++));
  }

  void check_function(Function& fn) {
    subst_.clear();
    locals_.clear();
    for (const Param& param : fn.params) locals_[param.name] = param.type;
    current_return_ = fn.ret;
    check_stmts(fn.body);
    // Resolve every annotation through the final substitution.
    finalize_stmts(fn.body);
  }

  void check_stmts(const std::vector<StmtPtr>& stmts) {
    for (const StmtPtr& stmt : stmts) check_stmt(*stmt);
  }

  void check_stmt(Stmt& stmt) {
    switch (stmt.kind) {
      case Stmt::Kind::kBlock:
        check_stmts(stmt.body);
        return;
      case Stmt::Kind::kExpr:
        infer(*stmt.expr);
        return;
      case Stmt::Kind::kVarDecl:
        if (stmt.init) {
          const TypePtr init_type = infer(*stmt.init);
          require_unify(stmt.decl_type, init_type, stmt.init->span(),
                        "initialiser type does not match declaration");
        }
        locals_[stmt.decl_name] = stmt.decl_type;
        return;
      case Stmt::Kind::kIf:
        infer(*stmt.expr);
        check_stmts(stmt.body);
        check_stmts(stmt.else_body);
        return;
      case Stmt::Kind::kWhile:
        infer(*stmt.expr);
        check_stmts(stmt.body);
        return;
      case Stmt::Kind::kFor:
        if (stmt.for_init) check_stmt(*stmt.for_init);
        if (stmt.expr) infer(*stmt.expr);
        if (stmt.init) infer(*stmt.init);
        check_stmts(stmt.body);
        return;
      case Stmt::Kind::kReturn:
        if (stmt.expr) {
          const TypePtr value = infer(*stmt.expr);
          require_unify(current_return_, value, stmt.expr->span(),
                        "return value does not match the result type");
        } else if (current_return_->kind != Type::Kind::kVoid) {
          fail(stmt.span(), "non-void function returns no value");
        }
        return;
    }
  }

  void require_unify(const TypePtr& a, const TypePtr& b, Span span,
                     const std::string& message) {
    if (!unify(a, b, subst_, pardata_names_))
      fail(span, message + ": " + type_to_string(substitute(a, subst_)) +
                     " vs " + type_to_string(substitute(b, subst_)));
  }

  TypePtr infer(Expr& expr) {
    const TypePtr type = infer_impl(expr);
    expr.type = type;
    return type;
  }

  TypePtr infer_impl(Expr& expr) {
    switch (expr.kind) {
      case Expr::Kind::kIntLit:
        return Type::make_int();
      case Expr::Kind::kFloatLit:
        return Type::make_float();
      case Expr::Kind::kName: {
        const auto local = locals_.find(expr.name);
        if (local != locals_.end()) return local->second;
        const auto global = globals_.find(expr.name);
        if (global != globals_.end())
          // A fresh instance per use: each call site of a polymorphic
          // function may instantiate its variables differently.
          return freshen(global->second,
                         "_f" + std::to_string(next_fresh_++) + "_");
        fail(expr.span(), "unknown name '" + expr.name + "'");
      }
      case Expr::Kind::kSection: {
        // (op): a polymorphic binary function.  Comparison sections
        // yield int; arithmetic sections yield the operand type.
        const TypePtr operand = fresh_var();
        const bool comparison = expr.name == "<" || expr.name == ">" ||
                                expr.name == "==" || expr.name == "!=" ||
                                expr.name == "<=" || expr.name == ">=";
        return Type::make_function(
            {operand, operand}, comparison ? Type::make_int() : operand);
      }
      case Expr::Kind::kBinary: {
        const TypePtr lhs = infer(*expr.lhs);
        const TypePtr rhs = infer(*expr.rhs);
        if (expr.name == "&&" || expr.name == "||") return Type::make_int();
        require_unify(lhs, rhs, expr.span(),
                      "operands of '" + expr.name + "' disagree");
        const bool comparison = expr.name == "<" || expr.name == ">" ||
                                expr.name == "==" || expr.name == "!=" ||
                                expr.name == "<=" || expr.name == ">=";
        return comparison ? Type::make_int() : substitute(lhs, subst_);
      }
      case Expr::Kind::kUnary: {
        const TypePtr operand = infer(*expr.lhs);
        return expr.name == "!" ? Type::make_int() : operand;
      }
      case Expr::Kind::kAssign: {
        const TypePtr lhs = infer(*expr.lhs);
        const TypePtr rhs = infer(*expr.rhs);
        require_unify(lhs, rhs, expr.span(), "assignment types disagree");
        return substitute(lhs, subst_);
      }
      case Expr::Kind::kIndex: {
        const TypePtr base = substitute(infer(*expr.lhs), subst_);
        infer(*expr.rhs);
        if (base->kind == Type::Kind::kPointer) return base->result;
        if (base->kind == Type::Kind::kNamed && !base->params.empty())
          return base->params.front();
        fail(expr.span(),
             "cannot index a value of type " + type_to_string(base));
      }
      case Expr::Kind::kCall: {
        TypePtr callee = substitute(infer(*expr.callee), subst_);
        if (callee->kind != Type::Kind::kFunction)
          fail(expr.span(), "call of a non-function of type " +
                                type_to_string(callee));
        const std::size_t nparams = callee->params.size();
        const std::size_t nargs = expr.args.size();
        if (nargs > nparams)
          fail(expr.span(), "too many arguments: " + std::to_string(nargs) +
                                " for " + std::to_string(nparams));
        for (std::size_t i = 0; i < nargs; ++i) {
          const TypePtr arg = infer(*expr.args[i]);
          require_unify(callee->params[i], arg, expr.args[i]->span(),
                        "argument " + std::to_string(i + 1) +
                            " has the wrong type");
        }
        if (nargs == nparams) return substitute(callee->result, subst_);
        // Partial application (paper section 2.1): the call yields a
        // function over the remaining parameters.
        std::vector<TypePtr> rest(callee->params.begin() + nargs,
                                  callee->params.end());
        for (TypePtr& param : rest) param = substitute(param, subst_);
        return Type::make_function(std::move(rest),
                                   substitute(callee->result, subst_));
      }
    }
    fail(expr.span(), "unreachable expression kind");
  }

  void finalize_stmts(const std::vector<StmtPtr>& stmts) {
    for (const StmtPtr& stmt : stmts) {
      if (stmt->expr) finalize_expr(*stmt->expr);
      if (stmt->init) finalize_expr(*stmt->init);
      if (stmt->for_init && stmt->for_init->expr)
        finalize_expr(*stmt->for_init->expr);
      if (stmt->for_init && stmt->for_init->init)
        finalize_expr(*stmt->for_init->init);
      finalize_stmts(stmt->body);
      finalize_stmts(stmt->else_body);
    }
  }

  void finalize_expr(Expr& expr) {
    if (expr.type) expr.type = substitute(expr.type, subst_);
    if (expr.lhs) finalize_expr(*expr.lhs);
    if (expr.rhs) finalize_expr(*expr.rhs);
    if (expr.callee) finalize_expr(*expr.callee);
    for (const ExprPtr& arg : expr.args) finalize_expr(*arg);
  }

  Program& program_;
  std::set<std::string> pardata_names_;
  std::map<std::string, TypePtr> globals_;
  std::map<std::string, TypePtr> locals_;
  Subst subst_;
  TypePtr current_return_;
  long next_fresh_ = 0;
};

}  // namespace

void typecheck(Program& program) { Checker(program).run(); }

}  // namespace skil::skilc
