#include "skilc/interp.h"

#include <cstring>
#include <map>
#include <utility>

namespace skil::skilc {

namespace {

/// Evaluation steps run_function allows before it gives up.
constexpr long kStepBudget = 50'000'000;

/// Signed arithmetic through unsigned casts: wrapping is well-defined
/// where overflow is not.
long wrap_add(long a, long b) {
  return static_cast<long>(static_cast<unsigned long>(a) +
                           static_cast<unsigned long>(b));
}
long wrap_sub(long a, long b) {
  return static_cast<long>(static_cast<unsigned long>(a) -
                           static_cast<unsigned long>(b));
}
long wrap_mul(long a, long b) {
  return static_cast<long>(static_cast<unsigned long>(a) *
                           static_cast<unsigned long>(b));
}

/// `len_1` and friends resolve to the builtin behind the prototype.
std::string base_name(const std::string& name) {
  const std::size_t underscore = name.find_last_of('_');
  if (underscore == std::string::npos || underscore + 1 >= name.size())
    return name;
  for (std::size_t i = underscore + 1; i < name.size(); ++i)
    if (name[i] < '0' || name[i] > '9') return name;
  return name.substr(0, underscore);
}

bool is_truthy(const Value& v) {
  switch (v.kind) {
    case Value::Kind::kInt:
      return v.i != 0;
    case Value::Kind::kFloat:
      return v.f != 0.0;
    default:
      throw InterpError("skil interp: condition is not a scalar");
  }
}

double as_double(const Value& v) {
  if (v.kind == Value::Kind::kFloat) return v.f;
  if (v.kind == Value::Kind::kInt) return static_cast<double>(v.i);
  throw InterpError("skil interp: expected a numeric value");
}

long as_long(const Value& v) {
  if (v.kind == Value::Kind::kInt) return v.i;
  if (v.kind == Value::Kind::kFloat) return static_cast<long>(v.f);
  throw InterpError("skil interp: expected an integer value");
}

class Interp {
 public:
  explicit Interp(const Program& program) : program_(program) {}

  Value call(const std::string& name, std::vector<Value> args) {
    const Function* fn = program_.find_function(name);
    if (fn == nullptr || fn->is_prototype) return builtin(name, args);
    if (fn->params.size() != args.size())
      throw InterpError("skil interp: call of '" + name + "' with " +
                        std::to_string(args.size()) + " arguments, expected " +
                        std::to_string(fn->params.size()));
    std::map<std::string, Value> env;
    for (std::size_t i = 0; i < args.size(); ++i)
      env[fn->params[i].name] = std::move(args[i]);
    Value result = Value::unit();
    exec_block(fn->body, env, result);
    return result;
  }

 private:
  void tick() {
    if (--steps_left_ < 0)
      throw InterpError("skil interp: step budget exhausted");
  }

  Value builtin(const std::string& name, std::vector<Value>& args) {
    const std::string base = base_name(name);
    if (base == "len" || base == "part_upper") {
      if (args.size() != 1 || args[0].kind != Value::Kind::kArray)
        throw InterpError("skil interp: '" + base + "' expects an array");
      return Value::of_int(static_cast<long>(args[0].array->size()));
    }
    if (base == "part_lower") {
      if (args.size() != 1 || args[0].kind != Value::Kind::kArray)
        throw InterpError("skil interp: 'part_lower' expects an array");
      return Value::of_int(0);
    }
    if (base == "mk_index") {
      if (args.size() != 1)
        throw InterpError("skil interp: 'mk_index' expects one argument");
      return args[0];  // Index is the identity embedding of int
    }
    throw InterpError("skil interp: call of undefined function '" + name +
                      "'");
  }

  /// Executes statements; returns true when a `return` fired (its
  /// value is left in `result`).
  bool exec_block(const std::vector<StmtPtr>& stmts,
                  std::map<std::string, Value>& env, Value& result) {
    for (const StmtPtr& stmt : stmts)
      if (exec(*stmt, env, result)) return true;
    return false;
  }

  bool exec(const Stmt& stmt, std::map<std::string, Value>& env,
            Value& result) {
    tick();
    switch (stmt.kind) {
      case Stmt::Kind::kExpr:
        eval(*stmt.expr, env);
        return false;
      case Stmt::Kind::kVarDecl: {
        Value init = Value::of_int(0);
        if (stmt.decl_type != nullptr &&
            stmt.decl_type->kind == Type::Kind::kFloat)
          init = Value::of_float(0.0);
        if (stmt.init != nullptr) init = eval(*stmt.init, env);
        env[stmt.decl_name] = std::move(init);
        return false;
      }
      case Stmt::Kind::kIf: {
        if (is_truthy(eval(*stmt.expr, env)))
          return exec_block(stmt.body, env, result);
        return exec_block(stmt.else_body, env, result);
      }
      case Stmt::Kind::kWhile: {
        while (is_truthy(eval(*stmt.expr, env))) {
          tick();
          if (exec_block(stmt.body, env, result)) return true;
        }
        return false;
      }
      case Stmt::Kind::kFor: {
        if (stmt.for_init != nullptr && exec(*stmt.for_init, env, result))
          return true;
        while (stmt.expr == nullptr || is_truthy(eval(*stmt.expr, env))) {
          tick();
          if (exec_block(stmt.body, env, result)) return true;
          if (stmt.init != nullptr) eval(*stmt.init, env);
        }
        return false;
      }
      case Stmt::Kind::kReturn:
        result = stmt.expr != nullptr ? eval(*stmt.expr, env) : Value::unit();
        return true;
      case Stmt::Kind::kBlock:
        return exec_block(stmt.body, env, result);
    }
    return false;
  }

  Value eval(const Expr& expr, std::map<std::string, Value>& env) {
    tick();
    switch (expr.kind) {
      case Expr::Kind::kIntLit:
        return Value::of_int(expr.int_value);
      case Expr::Kind::kFloatLit:
        return Value::of_float(expr.float_value);
      case Expr::Kind::kName: {
        const auto it = env.find(expr.name);
        if (it == env.end())
          throw InterpError("skil interp: read of unbound name '" +
                            expr.name + "'");
        return it->second;
      }
      case Expr::Kind::kCall: {
        if (expr.callee->kind != Expr::Kind::kName)
          throw InterpError(
              "skil interp: computed callees do not survive instantiation");
        std::vector<Value> args;
        args.reserve(expr.args.size());
        for (const ExprPtr& arg : expr.args) args.push_back(eval(*arg, env));
        return call(expr.callee->name, std::move(args));
      }
      case Expr::Kind::kBinary:
        return binary(expr, env);
      case Expr::Kind::kUnary: {
        const Value operand = eval(*expr.lhs, env);
        if (expr.name == "-") {
          if (operand.kind == Value::Kind::kFloat)
            return Value::of_float(-operand.f);
          return Value::of_int(wrap_sub(0, as_long(operand)));
        }
        if (expr.name == "!") return Value::of_int(is_truthy(operand) ? 0 : 1);
        if (expr.name == "+") return operand;
        throw InterpError("skil interp: unsupported unary operator '" +
                          expr.name + "'");
      }
      case Expr::Kind::kAssign: {
        Value value = eval(*expr.rhs, env);
        store(*expr.lhs, value, env);
        return value;
      }
      case Expr::Kind::kIndex: {
        const Value base = eval(*expr.lhs, env);
        const long index = as_long(eval(*expr.rhs, env));
        return element(base, index);
      }
      case Expr::Kind::kSection:
        throw InterpError(
            "skil interp: operator sections do not survive instantiation");
    }
    throw InterpError("skil interp: unsupported expression");
  }

  static Value& element(const Value& base, long index) {
    if (base.kind != Value::Kind::kArray)
      throw InterpError("skil interp: indexing a non-array value");
    if (index < 0 || static_cast<std::size_t>(index) >= base.array->size())
      throw InterpError("skil interp: index " + std::to_string(index) +
                        " out of bounds for array of size " +
                        std::to_string(base.array->size()));
    return (*base.array)[static_cast<std::size_t>(index)];
  }

  void store(const Expr& target, const Value& value,
             std::map<std::string, Value>& env) {
    if (target.kind == Expr::Kind::kName) {
      env[target.name] = value;
      return;
    }
    if (target.kind == Expr::Kind::kIndex) {
      const Value base = eval(*target.lhs, env);
      const long index = as_long(eval(*target.rhs, env));
      element(base, index) = value;
      return;
    }
    throw InterpError("skil interp: unsupported assignment target");
  }

  Value binary(const Expr& expr, std::map<std::string, Value>& env) {
    const std::string& op = expr.name;
    if (op == "&&") {
      if (!is_truthy(eval(*expr.lhs, env))) return Value::of_int(0);
      return Value::of_int(is_truthy(eval(*expr.rhs, env)) ? 1 : 0);
    }
    if (op == "||") {
      if (is_truthy(eval(*expr.lhs, env))) return Value::of_int(1);
      return Value::of_int(is_truthy(eval(*expr.rhs, env)) ? 1 : 0);
    }
    const Value lhs = eval(*expr.lhs, env);
    const Value rhs = eval(*expr.rhs, env);
    const bool as_float = lhs.kind == Value::Kind::kFloat ||
                          rhs.kind == Value::Kind::kFloat;
    if (op == "==" || op == "!=" || op == "<" || op == "<=" || op == ">" ||
        op == ">=") {
      bool truth;
      if (as_float) {
        const double a = as_double(lhs);
        const double b = as_double(rhs);
        truth = op == "==" ? a == b
                : op == "!=" ? a != b
                : op == "<" ? a < b
                : op == "<=" ? a <= b
                : op == ">" ? a > b
                            : a >= b;
      } else {
        const long a = as_long(lhs);
        const long b = as_long(rhs);
        truth = op == "==" ? a == b
                : op == "!=" ? a != b
                : op == "<" ? a < b
                : op == "<=" ? a <= b
                : op == ">" ? a > b
                            : a >= b;
      }
      return Value::of_int(truth ? 1 : 0);
    }
    if (as_float) {
      const double a = as_double(lhs);
      const double b = as_double(rhs);
      if (op == "+") return Value::of_float(a + b);
      if (op == "-") return Value::of_float(a - b);
      if (op == "*") return Value::of_float(a * b);
      if (op == "/") return Value::of_float(a / b);
    } else {
      const long a = as_long(lhs);
      const long b = as_long(rhs);
      if (op == "+") return Value::of_int(wrap_add(a, b));
      if (op == "-") return Value::of_int(wrap_sub(a, b));
      if (op == "*") return Value::of_int(wrap_mul(a, b));
      if (op == "/") {
        if (b == 0) throw InterpError("skil interp: division by zero");
        if (b == -1) return Value::of_int(wrap_sub(0, a));
        return Value::of_int(a / b);
      }
      if (op == "%") {
        if (b == 0) throw InterpError("skil interp: modulo by zero");
        if (b == -1) return Value::of_int(0);
        return Value::of_int(a % b);
      }
    }
    throw InterpError("skil interp: unsupported binary operator '" + op +
                      "'");
  }

  const Program& program_;
  long steps_left_ = kStepBudget;
};

}  // namespace

bool value_bits_equal(const Value& a, const Value& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case Value::Kind::kVoid:
      return true;
    case Value::Kind::kInt:
      return a.i == b.i;
    case Value::Kind::kFloat: {
      unsigned long long abits = 0;
      unsigned long long bbits = 0;
      std::memcpy(&abits, &a.f, sizeof abits);
      std::memcpy(&bbits, &b.f, sizeof bbits);
      return abits == bbits;
    }
    case Value::Kind::kArray: {
      if (a.array->size() != b.array->size()) return false;
      for (std::size_t i = 0; i < a.array->size(); ++i)
        if (!value_bits_equal((*a.array)[i], (*b.array)[i])) return false;
      return true;
    }
  }
  return false;
}

Value run_function(const Program& program, const std::string& name,
                   std::vector<Value> args) {
  const Function* fn = program.find_function(name);
  std::string target = name;
  if (fn == nullptr || fn->is_prototype) {
    // Entry points are instantiation roots and keep their names; fall
    // back to the first instance (`name_1`) for polymorphic entries.
    for (const Function& candidate : program.functions) {
      if (candidate.is_prototype) continue;
      if (candidate.name.rfind(name + "_", 0) == 0) {
        target = candidate.name;
        break;
      }
    }
  }
  Interp interp(program);
  return interp.call(target, std::move(args));
}

}  // namespace skil::skilc
