// Tests for the skilc front end: lexer, parser, type rendering, and the
// source spans every pipeline stage puts on its errors.
#include <gtest/gtest.h>

#include "skilc/compiler.h"
#include "skilc/emit.h"
#include "skilc/instantiate.h"
#include "skilc/lexer.h"
#include "skilc/parser.h"
#include "skilc/typecheck.h"
#include "support/error.h"

namespace {

using namespace skil::skilc;
using skil::support::ContractError;

TEST(Lexer, TokenisesTheBasics) {
  const auto tokens = lex("int f($t x) { return x + 1.5; }");
  std::vector<Tok> kinds;
  for (const Token& token : tokens) kinds.push_back(token.kind);
  const std::vector<Tok> expected = {
      Tok::kInt,    Tok::kName,     Tok::kLParen, Tok::kTypeVar,
      Tok::kName,   Tok::kRParen,   Tok::kLBrace, Tok::kReturn,
      Tok::kName,   Tok::kPlus,     Tok::kFloatLit, Tok::kSemicolon,
      Tok::kRBrace, Tok::kEnd};
  EXPECT_EQ(kinds, expected);
}

TEST(Lexer, NumbersAndOperators) {
  const auto tokens = lex("42 3.25 == != <= >= && || -> - !");
  EXPECT_EQ(tokens[0].int_value, 42);
  EXPECT_DOUBLE_EQ(tokens[1].float_value, 3.25);
  EXPECT_EQ(tokens[2].kind, Tok::kEq);
  EXPECT_EQ(tokens[3].kind, Tok::kNe);
  EXPECT_EQ(tokens[4].kind, Tok::kLe);
  EXPECT_EQ(tokens[5].kind, Tok::kGe);
  EXPECT_EQ(tokens[6].kind, Tok::kAndAnd);
  EXPECT_EQ(tokens[7].kind, Tok::kOrOr);
  EXPECT_EQ(tokens[8].kind, Tok::kArrow);
  EXPECT_EQ(tokens[9].kind, Tok::kMinus);
  EXPECT_EQ(tokens[10].kind, Tok::kNot);
}

TEST(Lexer, SkipsBothCommentStyles) {
  const auto tokens = lex("a // line\n b /* block\n still */ c");
  ASSERT_EQ(tokens.size(), 4u);  // a b c end
  EXPECT_EQ(tokens[0].text, "a");
  EXPECT_EQ(tokens[1].text, "b");
  EXPECT_EQ(tokens[2].text, "c");
}

TEST(Lexer, TracksLineNumbersAndRejectsGarbage) {
  const auto tokens = lex("a\nb");
  EXPECT_EQ(tokens[0].line, 1);
  EXPECT_EQ(tokens[1].line, 2);
  EXPECT_THROW(lex("a # b"), ContractError);
  EXPECT_THROW(lex("$ x"), ContractError);
  EXPECT_THROW(lex("/* open"), ContractError);
}

TEST(Parser, FunctionWithFunctionalParameter) {
  // The paper's array_map header.
  const Program program = parse(
      "void array_map ($t2 map_f ($t1, Index), array <$t1> a, "
      "array <$t2> b);");
  ASSERT_EQ(program.functions.size(), 1u);
  const Function& fn = program.functions[0];
  EXPECT_TRUE(fn.is_prototype);
  EXPECT_TRUE(fn.is_hof());
  EXPECT_TRUE(fn.is_polymorphic());
  ASSERT_EQ(fn.params.size(), 3u);
  EXPECT_TRUE(fn.params[0].is_function());
  EXPECT_EQ(type_to_string(fn.params[0].type), "$t2 ($t1, Index)");
  EXPECT_EQ(type_to_string(fn.params[1].type), "array <$t1>");
}

TEST(Parser, PardataDeclarationHidesTheImplementation) {
  const Program program =
      parse("pardata array <$t> some hidden implem stuff;");
  ASSERT_EQ(program.pardatas.size(), 1u);
  EXPECT_EQ(program.pardatas[0].name, "array");
  EXPECT_EQ(program.pardatas[0].type_params,
            (std::vector<std::string>{"$t"}));
}

TEST(Parser, OperatorSectionsAndPartialApplication) {
  // fold((+), lst) and map((*)(2), lst) from section 2.1.
  const Program program = parse(
      "void g(int lst) { fold((+), lst); map((*)(2), lst); }");
  const auto& body = program.functions[0].body;
  ASSERT_EQ(body.size(), 2u);
  const Expr& fold_call = *body[0]->expr;
  ASSERT_EQ(fold_call.kind, Expr::Kind::kCall);
  EXPECT_EQ(fold_call.args[0]->kind, Expr::Kind::kSection);
  EXPECT_EQ(fold_call.args[0]->name, "+");
  const Expr& map_call = *body[1]->expr;
  const Expr& section_app = *map_call.args[0];
  ASSERT_EQ(section_app.kind, Expr::Kind::kCall);
  EXPECT_EQ(section_app.callee->kind, Expr::Kind::kSection);
  EXPECT_EQ(section_app.callee->name, "*");
  EXPECT_EQ(section_app.args[0]->int_value, 2);
}

TEST(Parser, SectionVersusParenthesisedExpression) {
  const Program program = parse("int f(int x) { return (-x) + (-) (1, x); }");
  const Expr& sum = *program.functions[0].body[0]->expr;
  EXPECT_EQ(sum.lhs->kind, Expr::Kind::kUnary);       // (-x)
  EXPECT_EQ(sum.rhs->kind, Expr::Kind::kCall);        // (-)(1, x)
  EXPECT_EQ(sum.rhs->callee->kind, Expr::Kind::kSection);
}

TEST(Parser, StatementsRoundTripThroughTheEmitter) {
  const std::string source =
      "int fib(int n) {\n"
      "  int a = 0;\n"
      "  int b = 1;\n"
      "  int i;\n"
      "  for (i = 0; i < n; i = i + 1) {\n"
      "    int t = a + b;\n"
      "    a = b;\n"
      "    b = t;\n"
      "  }\n"
      "  if (n <= 0) return 0; else return a;\n"
      "}\n";
  const Program program = parse(source);
  const std::string emitted = emit_program(program);
  // Emitted text must re-parse to a structurally equivalent program.
  const Program reparsed = parse(emitted);
  EXPECT_EQ(emit_program(reparsed), emitted);
  EXPECT_NE(emitted.find("for (i = 0; i < n; i = i + 1)"),
            std::string::npos);
}

TEST(Parser, ReportsSyntaxErrorsWithLocation) {
  try {
    parse("int f( { }");
    FAIL() << "expected a syntax error";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
  }
  EXPECT_THROW(parse("int f() { return 1 }"), ContractError);
  EXPECT_THROW(parse("pardata x;"), ContractError);
}

TEST(Types, UnificationBindsVariables) {
  Subst subst;
  const auto var = Type::make_var("$t");
  const auto arr_var = Type::make_named("array", {var});
  const auto arr_int = Type::make_named("array", {Type::make_int()});
  EXPECT_TRUE(unify(arr_var, arr_int, subst, {}));
  EXPECT_EQ(type_to_string(substitute(var, subst)), "int");
}

TEST(Types, UnificationRejectsMismatchesAndOccurs) {
  Subst subst;
  EXPECT_FALSE(unify(Type::make_int(), Type::make_float(), subst, {}));
  const auto var = Type::make_var("$t");
  const auto wrapped = Type::make_named("list", {var});
  Subst subst2;
  EXPECT_FALSE(unify(var, wrapped, subst2, {}));  // occurs check
}

TEST(Types, PardataComponentRestriction) {
  // "type variables appearing as components of other data types may
  // not be instantiated with types introduced by the pardata
  // construct" -- list<$t> cannot unify with list<array<int>>.
  const std::set<std::string> pardatas = {"array"};
  const auto var = Type::make_var("$t");
  const auto list_var = Type::make_named("list", {var});
  const auto arr = Type::make_named("array", {Type::make_int()});
  const auto list_arr = Type::make_named("list", {arr});
  Subst subst;
  EXPECT_FALSE(unify(list_var, list_arr, subst, pardatas));
  // At top level the binding is allowed (an array-typed parameter).
  Subst subst2;
  EXPECT_TRUE(unify(var, arr, subst2, pardatas));
}

TEST(Types, MangledNamesMatchThePaper) {
  // "floatarray and intarray stand for the implementations of
  // array <float> and array <int>".
  EXPECT_EQ(mangle_type(Type::make_named("array", {Type::make_float()})),
            "floatarray");
  EXPECT_EQ(mangle_type(Type::make_named("array", {Type::make_int()})),
            "intarray");
  EXPECT_EQ(mangle_type(Type::make_pointer(Type::make_int())), "int *");
}

// --- span-carrying errors from every pipeline stage -----------------------

TEST(SpanErrors, LexerErrorCarriesLineAndColumn) {
  try {
    parse("int f (int x) { return x @ 1; }");
    FAIL() << "expected ContractError";
  } catch (const skil::support::ContractError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("line 1:"), std::string::npos) << what;
    EXPECT_EQ(error.line(), 1);
    EXPECT_GT(error.column(), 0);
  }
}

TEST(SpanErrors, MalformedSectionIsASpannedParseError) {
  try {
    parse("int f (int x) { return (+ x; }");
    FAIL() << "expected ContractError";
  } catch (const skil::support::ContractError& error) {
    EXPECT_EQ(error.line(), 1);
    EXPECT_GT(error.column(), 0);
  }
}

TEST(SpanErrors, UnboundNameIsASpannedTypeError) {
  try {
    Program program = parse("int f (int x) {\n  return x + missing;\n}");
    typecheck(program);
    FAIL() << "expected TypeError";
  } catch (const TypeError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("line 2:"), std::string::npos) << what;
    EXPECT_EQ(error.line(), 2);
    EXPECT_GT(error.column(), 0);
    EXPECT_NE(std::string(error.bare()).find("missing"), std::string::npos);
  }
}

TEST(SpanErrors, ArityMismatchedPartialApplicationIsSpanned) {
  // above(1.0, 2.0, mk_index(0), 9) applies one argument too many.
  try {
    Program program = parse(R"(
      Index mk_index(int i);
      int above (float t, float e, Index ix) { return e >= t; }
      int use (float a, float b) {
        return above(a, b, mk_index(0), 9);
      }
    )");
    typecheck(program);
    FAIL() << "expected TypeError";
  } catch (const TypeError& error) {
    EXPECT_EQ(error.line(), 5);
    EXPECT_GT(error.column(), 0);
  }
}

TEST(SpanErrors, InstantiationErrorCarriesTheCallSiteSpan) {
  try {
    compile(R"(
      int apply (int f (int), int x) { return f(x); }
      int twice (int g (int), int x) { return g(g(x)); }
      int inc (int x) { return x + 1; }
      int use (int x) { return apply(twice(inc), x); }
    )");
    FAIL() << "expected InstantiationError";
  } catch (const InstantiationError& error) {
    EXPECT_EQ(error.line(), 5);
    EXPECT_GT(error.column(), 0);
  }
}

}  // namespace
