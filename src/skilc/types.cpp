#include "skilc/types.h"

#include <sstream>

namespace skil::skilc {

namespace {
TypePtr make(Type::Kind kind) {
  auto type = std::make_shared<Type>();
  type->kind = kind;
  return type;
}
}  // namespace

TypePtr Type::make_int() {
  static const TypePtr type = make(Kind::kInt);
  return type;
}

TypePtr Type::make_float() {
  static const TypePtr type = make(Kind::kFloat);
  return type;
}

TypePtr Type::make_void() {
  static const TypePtr type = make(Kind::kVoid);
  return type;
}

TypePtr Type::make_var(std::string name) {
  auto type = std::make_shared<Type>();
  type->kind = Kind::kVar;
  type->name = std::move(name);
  return type;
}

TypePtr Type::make_named(std::string name, std::vector<TypePtr> args) {
  auto type = std::make_shared<Type>();
  type->kind = Kind::kNamed;
  type->name = std::move(name);
  type->params = std::move(args);
  return type;
}

TypePtr Type::make_pointer(TypePtr pointee) {
  auto type = std::make_shared<Type>();
  type->kind = Kind::kPointer;
  type->result = std::move(pointee);
  return type;
}

TypePtr Type::make_function(std::vector<TypePtr> params, TypePtr result) {
  auto type = std::make_shared<Type>();
  type->kind = Kind::kFunction;
  type->params = std::move(params);
  type->result = std::move(result);
  return type;
}

std::string type_to_string(const TypePtr& type) {
  switch (type->kind) {
    case Type::Kind::kInt:
      return "int";
    case Type::Kind::kFloat:
      return "float";
    case Type::Kind::kVoid:
      return "void";
    case Type::Kind::kVar:
      return type->name;
    case Type::Kind::kPointer:
      return type_to_string(type->result) + " *";
    case Type::Kind::kNamed: {
      if (type->params.empty()) return type->name;
      std::ostringstream os;
      os << type->name << " <";
      for (std::size_t i = 0; i < type->params.size(); ++i) {
        if (i) os << ", ";
        os << type_to_string(type->params[i]);
      }
      os << ">";
      return os.str();
    }
    case Type::Kind::kFunction: {
      std::ostringstream os;
      os << type_to_string(type->result) << " (";
      for (std::size_t i = 0; i < type->params.size(); ++i) {
        if (i) os << ", ";
        os << type_to_string(type->params[i]);
      }
      os << ")";
      return os.str();
    }
  }
  return "?";
}

TypePtr substitute(const TypePtr& type, const Subst& subst) {
  switch (type->kind) {
    case Type::Kind::kVar: {
      const auto it = subst.find(type->name);
      // Apply recursively so chains a->b->int resolve fully.
      return it == subst.end() ? type : substitute(it->second, subst);
    }
    case Type::Kind::kNamed: {
      if (type->params.empty()) return type;
      std::vector<TypePtr> args;
      args.reserve(type->params.size());
      for (const TypePtr& arg : type->params)
        args.push_back(substitute(arg, subst));
      return Type::make_named(type->name, std::move(args));
    }
    case Type::Kind::kPointer:
      return Type::make_pointer(substitute(type->result, subst));
    case Type::Kind::kFunction: {
      std::vector<TypePtr> params;
      params.reserve(type->params.size());
      for (const TypePtr& param : type->params)
        params.push_back(substitute(param, subst));
      return Type::make_function(std::move(params),
                                 substitute(type->result, subst));
    }
    default:
      return type;
  }
}

namespace {
bool occurs(const std::string& var, const TypePtr& type) {
  if (type->kind == Type::Kind::kVar) return type->name == var;
  for (const TypePtr& param : type->params)
    if (occurs(var, param)) return true;
  return type->result && occurs(var, type->result);
}
}  // namespace

bool unify(const TypePtr& a_in, const TypePtr& b_in, Subst& subst,
           const std::set<std::string>& pardata_names, bool at_top) {
  const TypePtr a = substitute(a_in, subst);
  const TypePtr b = substitute(b_in, subst);

  if (a->kind == Type::Kind::kVar || b->kind == Type::Kind::kVar) {
    const TypePtr& var = a->kind == Type::Kind::kVar ? a : b;
    const TypePtr& other = a->kind == Type::Kind::kVar ? b : a;
    if (other->kind == Type::Kind::kVar && other->name == var->name)
      return true;
    if (occurs(var->name, other)) return false;
    // Paper restriction: a type variable occurring as a *component* of
    // another data type may not be instantiated with a pardata type.
    if (!at_top && other->kind == Type::Kind::kNamed &&
        pardata_names.count(other->name))
      return false;
    subst[var->name] = other;
    return true;
  }

  if (a->kind != b->kind || a->name != b->name ||
      a->params.size() != b->params.size())
    return false;
  for (std::size_t i = 0; i < a->params.size(); ++i)
    if (!unify(a->params[i], b->params[i], subst, pardata_names,
               /*at_top=*/false))
      return false;
  if ((a->result == nullptr) != (b->result == nullptr)) return false;
  if (a->result &&
      !unify(a->result, b->result, subst, pardata_names, /*at_top=*/false))
    return false;
  return true;
}

TypePtr freshen(const TypePtr& type, const std::string& prefix) {
  switch (type->kind) {
    case Type::Kind::kVar:
      return Type::make_var("$" + prefix + type->name.substr(1));
    case Type::Kind::kNamed: {
      if (type->params.empty()) return type;
      std::vector<TypePtr> args;
      for (const TypePtr& arg : type->params)
        args.push_back(freshen(arg, prefix));
      return Type::make_named(type->name, std::move(args));
    }
    case Type::Kind::kPointer:
      return Type::make_pointer(freshen(type->result, prefix));
    case Type::Kind::kFunction: {
      std::vector<TypePtr> params;
      for (const TypePtr& param : type->params)
        params.push_back(freshen(param, prefix));
      return Type::make_function(std::move(params),
                                 freshen(type->result, prefix));
    }
    default:
      return type;
  }
}

void collect_vars(const TypePtr& type, std::set<std::string>& out) {
  if (type->kind == Type::Kind::kVar) out.insert(type->name);
  for (const TypePtr& param : type->params) collect_vars(param, out);
  if (type->result) collect_vars(type->result, out);
}

bool is_monomorphic(const TypePtr& type) {
  std::set<std::string> vars;
  collect_vars(type, vars);
  return vars.empty();
}

}  // namespace skil::skilc
