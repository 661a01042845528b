#include "skilc/emit.h"

#include <sstream>

#include "support/error.h"

namespace skil::skilc {

std::string mangle_type(const TypePtr& type) {
  switch (type->kind) {
    case Type::Kind::kInt:
      return "int";
    case Type::Kind::kFloat:
      return "float";
    case Type::Kind::kVoid:
      return "void";
    case Type::Kind::kVar:
      // Unresolved type variables only reach the emitter for generic
      // (non-instantiated) declarations; keep the Skil spelling.
      return type->name;
    case Type::Kind::kPointer:
      return mangle_type(type->result) + " *";
    case Type::Kind::kNamed: {
      std::string name;
      for (const TypePtr& arg : type->params) name += mangle_type(arg);
      return name + type->name;
    }
    case Type::Kind::kFunction:
      // Function types appear only in generic headers.
      return type_to_string(type);
  }
  return "?";
}

namespace {

int precedence(const std::string& op) {
  if (op == "*" || op == "/" || op == "%") return 5;
  if (op == "+" || op == "-") return 4;
  if (op == "<" || op == ">" || op == "<=" || op == ">=") return 3;
  if (op == "==" || op == "!=") return 2;
  if (op == "&&") return 1;
  return 0;  // ||
}

void emit(const Expr& expr, std::ostream& os, int parent_prec);

void emit_operand(const Expr& expr, std::ostream& os, int prec) {
  emit(expr, os, prec);
}

void emit(const Expr& expr, std::ostream& os, int parent_prec) {
  switch (expr.kind) {
    case Expr::Kind::kIntLit:
      os << expr.int_value;
      return;
    case Expr::Kind::kFloatLit:
      os << expr.float_value;
      return;
    case Expr::Kind::kName:
      os << expr.name;
      return;
    case Expr::Kind::kSection:
      os << '(' << expr.name << ')';
      return;
    case Expr::Kind::kUnary:
      os << expr.name;
      emit(*expr.lhs, os, 6);
      return;
    case Expr::Kind::kAssign:
      emit(*expr.lhs, os, 1);
      os << " = ";
      emit(*expr.rhs, os, 0);
      return;
    case Expr::Kind::kIndex:
      emit(*expr.lhs, os, 6);
      os << '[';
      emit(*expr.rhs, os, 0);
      os << ']';
      return;
    case Expr::Kind::kBinary: {
      const int prec = precedence(expr.name);
      const bool parens = prec < parent_prec;
      if (parens) os << '(';
      emit_operand(*expr.lhs, os, prec);
      os << ' ' << expr.name << ' ';
      emit_operand(*expr.rhs, os, prec + 1);
      if (parens) os << ')';
      return;
    }
    case Expr::Kind::kCall: {
      emit(*expr.callee, os, 6);
      os << '(';
      for (std::size_t i = 0; i < expr.args.size(); ++i) {
        if (i) os << ", ";
        emit(*expr.args[i], os, 0);
      }
      os << ')';
      return;
    }
  }
}

/// Renders a declared type: mangled C names (the paper's floatarray)
/// or the Skil spelling array <float> (portable mode).
std::string render_type(const TypePtr& type, bool mangle) {
  return mangle ? mangle_type(type) : type_to_string(type);
}

void emit_stmts(const std::vector<StmtPtr>& stmts, std::ostream& os,
                int indent, bool mangle);

void emit_stmt(const Stmt& stmt, std::ostream& os, int indent, bool mangle) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  switch (stmt.kind) {
    case Stmt::Kind::kBlock:
      os << pad << "{\n";
      emit_stmts(stmt.body, os, indent + 1, mangle);
      os << pad << "}\n";
      return;
    case Stmt::Kind::kExpr:
      os << pad;
      emit(*stmt.expr, os, 0);
      os << ";\n";
      return;
    case Stmt::Kind::kVarDecl:
      os << pad << render_type(stmt.decl_type, mangle) << ' '
         << stmt.decl_name;
      if (stmt.init) {
        os << " = ";
        emit(*stmt.init, os, 0);
      }
      os << ";\n";
      return;
    case Stmt::Kind::kReturn:
      os << pad << "return";
      if (stmt.expr) {
        os << ' ';
        emit(*stmt.expr, os, 0);
      }
      os << ";\n";
      return;
    case Stmt::Kind::kIf:
      os << pad << "if (";
      emit(*stmt.expr, os, 0);
      os << ")\n";
      emit_stmts(stmt.body, os, indent + 1, mangle);
      if (!stmt.else_body.empty()) {
        os << pad << "else\n";
        emit_stmts(stmt.else_body, os, indent + 1, mangle);
      }
      return;
    case Stmt::Kind::kWhile:
      os << pad << "while (";
      emit(*stmt.expr, os, 0);
      os << ")\n";
      emit_stmts(stmt.body, os, indent + 1, mangle);
      return;
    case Stmt::Kind::kFor: {
      os << pad << "for (";
      if (stmt.for_init) {
        // Render the init statement inline, without its ';\n'.
        std::ostringstream init;
        emit_stmt(*stmt.for_init, init, 0, mangle);
        std::string text = init.str();
        while (!text.empty() && (text.back() == '\n' || text.back() == ';'))
          text.pop_back();
        os << text;
      }
      os << "; ";
      if (stmt.expr) emit(*stmt.expr, os, 0);
      os << "; ";
      if (stmt.init) emit(*stmt.init, os, 0);
      os << ")\n";
      emit_stmts(stmt.body, os, indent + 1, mangle);
      return;
    }
  }
}

void emit_stmts(const std::vector<StmtPtr>& stmts, std::ostream& os,
                int indent, bool mangle) {
  for (const StmtPtr& stmt : stmts) emit_stmt(*stmt, os, indent, mangle);
}

std::string emit_param(const Param& param, bool mangle) {
  if (!param.is_function())
    return render_type(param.type, mangle) + " " + param.name;
  std::ostringstream os;
  os << render_type(param.type->result, mangle) << ' ' << param.name << " (";
  for (std::size_t i = 0; i < param.type->params.size(); ++i) {
    if (i) os << ", ";
    os << render_type(param.type->params[i], mangle);
  }
  os << ')';
  return os.str();
}

}  // namespace

std::string emit_program(const Program& program, bool mangle) {
  std::ostringstream os;
  for (const PardataDecl& decl : program.pardatas) {
    os << "pardata " << decl.name << " <";
    for (std::size_t i = 0; i < decl.type_params.size(); ++i) {
      if (i) os << ", ";
      os << decl.type_params[i];
    }
    os << ">;\n";
  }
  if (!program.pardatas.empty()) os << '\n';
  for (const Function& fn : program.functions) {
    os << render_type(fn.ret, mangle) << ' ' << fn.name << '(';
    for (std::size_t i = 0; i < fn.params.size(); ++i) {
      if (i) os << ", ";
      os << emit_param(fn.params[i], mangle);
    }
    os << ')';
    if (fn.is_prototype) {
      os << ";\n\n";
      continue;
    }
    os << " {\n";
    emit_stmts(fn.body, os, 1, mangle);
    os << "}\n\n";
  }
  return os.str();
}

}  // namespace skil::skilc
