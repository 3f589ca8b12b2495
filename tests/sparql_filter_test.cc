#include "sparql/filter_expr.h"

#include <gtest/gtest.h>

namespace lakefed::sparql {
namespace {

using rdf::Term;

rdf::Binding MakeBinding() {
  rdf::Binding b;
  b["name"] = Term::Literal("Homo sapiens");
  b["w"] = Term::Literal("180.5", rdf::kXsdDouble);
  b["n"] = Term::Literal("42", rdf::kXsdInteger);
  b["iri"] = Term::Iri("http://ex/d1");
  b["lang"] = Term::Literal("hallo", "", "de");
  return b;
}

bool Eval(const FilterExprPtr& e) {
  auto r = e->EvalBool(MakeBinding());
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ok() && *r;
}

TEST(FilterExprTest, NumericComparisons) {
  auto lit100 = FilterExpr::Literal(Term::Literal("100", rdf::kXsdInteger));
  EXPECT_TRUE(Eval(FilterExpr::Compare(FilterExpr::CompareOp::kGt,
                                       FilterExpr::Var("w"), lit100)));
  EXPECT_FALSE(Eval(FilterExpr::Compare(FilterExpr::CompareOp::kLt,
                                        FilterExpr::Var("w"), lit100)));
  // numeric comparison across int/double lexical forms
  auto lit42f = FilterExpr::Literal(Term::Literal("42.0", rdf::kXsdDouble));
  EXPECT_TRUE(Eval(FilterExpr::Compare(FilterExpr::CompareOp::kEq,
                                       FilterExpr::Var("n"), lit42f)));
}

TEST(FilterExprTest, StringComparisons) {
  auto homo = FilterExpr::Literal(Term::Literal("Homo sapiens"));
  EXPECT_TRUE(Eval(FilterExpr::Compare(FilterExpr::CompareOp::kEq,
                                       FilterExpr::Var("name"), homo)));
  EXPECT_FALSE(Eval(FilterExpr::Compare(FilterExpr::CompareOp::kNe,
                                        FilterExpr::Var("name"), homo)));
  // lexicographic
  auto aaa = FilterExpr::Literal(Term::Literal("Aaa"));
  EXPECT_TRUE(Eval(FilterExpr::Compare(FilterExpr::CompareOp::kGt,
                                       FilterExpr::Var("name"), aaa)));
}

TEST(FilterExprTest, LogicalOperators) {
  auto t = FilterExpr::Literal(
      Term::Literal("true", "http://www.w3.org/2001/XMLSchema#boolean"));
  auto f = FilterExpr::Literal(
      Term::Literal("false", "http://www.w3.org/2001/XMLSchema#boolean"));
  EXPECT_TRUE(Eval(FilterExpr::And(t, t)));
  EXPECT_FALSE(Eval(FilterExpr::And(t, f)));
  EXPECT_TRUE(Eval(FilterExpr::Or(f, t)));
  EXPECT_FALSE(Eval(FilterExpr::Or(f, f)));
  EXPECT_TRUE(Eval(FilterExpr::Not(f)));
  EXPECT_FALSE(Eval(FilterExpr::Not(t)));
}

TEST(FilterExprTest, ShortCircuitSkipsUnboundRhs) {
  auto f = FilterExpr::Literal(
      Term::Literal("false", "http://www.w3.org/2001/XMLSchema#boolean"));
  auto unbound = FilterExpr::Var("nope");
  // AND(false, error) = false, no error.
  auto r = FilterExpr::And(f, unbound)->EvalBool(MakeBinding());
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
}

TEST(FilterExprTest, UnboundVariableIsError) {
  auto r = FilterExpr::Var("nope")->EvalBool(MakeBinding());
  EXPECT_FALSE(r.ok());
}

TEST(FilterExprTest, StringFunctions) {
  auto sapiens = FilterExpr::Literal(Term::Literal("sapiens"));
  auto homo = FilterExpr::Literal(Term::Literal("Homo"));
  EXPECT_TRUE(Eval(FilterExpr::Function(
      FilterExpr::Func::kContains, {FilterExpr::Var("name"), sapiens})));
  EXPECT_FALSE(Eval(FilterExpr::Function(
      FilterExpr::Func::kContains, {FilterExpr::Var("name"),
                                    FilterExpr::Literal(Term::Literal("x"))})));
  EXPECT_TRUE(Eval(FilterExpr::Function(FilterExpr::Func::kStrStarts,
                                        {FilterExpr::Var("name"), homo})));
  EXPECT_TRUE(Eval(FilterExpr::Function(FilterExpr::Func::kStrEnds,
                                        {FilterExpr::Var("name"), sapiens})));
  EXPECT_TRUE(Eval(FilterExpr::Function(
      FilterExpr::Func::kRegex,
      {FilterExpr::Var("name"), FilterExpr::Literal(Term::Literal("^Homo"))})));
  EXPECT_FALSE(Eval(FilterExpr::Function(
      FilterExpr::Func::kRegex,
      {FilterExpr::Var("name"),
       FilterExpr::Literal(Term::Literal("^sapiens"))})));
}

TEST(FilterExprTest, BoundStrLangDatatype) {
  EXPECT_TRUE(
      Eval(FilterExpr::Function(FilterExpr::Func::kBound,
                                {FilterExpr::Var("name")})));
  EXPECT_FALSE(
      Eval(FilterExpr::Function(FilterExpr::Func::kBound,
                                {FilterExpr::Var("nope")})));
  auto str_of_iri = FilterExpr::Function(FilterExpr::Func::kStr,
                                         {FilterExpr::Var("iri")});
  auto r = str_of_iri->Eval(MakeBinding());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->value(), "http://ex/d1");
  auto lang = FilterExpr::Function(FilterExpr::Func::kLang,
                                   {FilterExpr::Var("lang")});
  r = lang->Eval(MakeBinding());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->value(), "de");
}

TEST(FilterExprTest, BadRegexIsError) {
  auto bad = FilterExpr::Function(
      FilterExpr::Func::kRegex,
      {FilterExpr::Var("name"), FilterExpr::Literal(Term::Literal("[unclosed"))});
  EXPECT_FALSE(bad->EvalBool(MakeBinding()).ok());
}

// EvalBool takes shortcuts (comparisons on borrowed terms, connectives on
// plain booleans); over a table of filter shapes it must agree exactly with
// the effective boolean value of Eval, error status included.
TEST(FilterExprTest, EvalBoolMatchesEffectiveBoolOfEval) {
  using Op = FilterExpr::CompareOp;
  auto var = FilterExpr::Var;
  auto lit = [](const char* lexical, const std::string& datatype = "") {
    return FilterExpr::Literal(Term::Literal(lexical, datatype));
  };
  auto cmp = [](Op op, FilterExprPtr a, FilterExprPtr b) {
    return FilterExpr::Compare(op, std::move(a), std::move(b));
  };
  auto fn = [](FilterExpr::Func f, std::vector<FilterExprPtr> args) {
    return FilterExpr::Function(f, std::move(args));
  };
  auto truth = lit("true", "http://www.w3.org/2001/XMLSchema#boolean");
  const std::vector<FilterExprPtr> filters = {
      // Comparisons: numeric vs numeric, numeric vs string, strings, IRIs.
      cmp(Op::kGt, var("w"), lit("100", rdf::kXsdInteger)),
      cmp(Op::kEq, var("n"), lit("42.0", rdf::kXsdDouble)),
      cmp(Op::kLt, var("n"), lit("abc")),
      cmp(Op::kGe, lit("abc"), var("name")),
      cmp(Op::kNe, var("name"), var("lang")),
      cmp(Op::kLe, var("iri"), lit("http://ex/d1")),
      cmp(Op::kEq, var("w"), var("w")),
      // Unbound variables, on either side and nested.
      cmp(Op::kEq, var("nope"), lit("1")),
      cmp(Op::kEq, lit("1"), var("nope")),
      FilterExpr::Not(cmp(Op::kEq, var("nope"), var("n"))),
      var("nope"),
      // Non-term operands fall back to Eval.
      cmp(Op::kEq, fn(FilterExpr::Func::kStr, {var("iri")}),
          lit("http://ex/d1")),
      cmp(Op::kEq, cmp(Op::kLt, var("n"), var("w")), truth),
      // Functions.
      fn(FilterExpr::Func::kRegex, {var("name"), lit("^Homo")}),
      fn(FilterExpr::Func::kRegex, {var("name"), lit("[unclosed")}),
      fn(FilterExpr::Func::kRegex, {var("nope"), lit("x")}),
      fn(FilterExpr::Func::kBound, {var("name")}),
      fn(FilterExpr::Func::kBound, {var("nope")}),
      fn(FilterExpr::Func::kBound, {lit("x")}),
      fn(FilterExpr::Func::kStr, {var("lang")}),
      fn(FilterExpr::Func::kContains, {var("name"), lit("sap")}),
      // Bare terms: effective boolean values of literals and IRIs.
      var("n"), var("iri"), lit(""), lit("0", rdf::kXsdInteger), truth,
      // Nested connectives, with short circuits past errors.
      FilterExpr::And(cmp(Op::kGt, var("n"), lit("1")),
                      FilterExpr::Or(var("nope"), truth)),
      FilterExpr::Or(cmp(Op::kGt, var("n"), lit("1")), var("nope")),
      FilterExpr::And(cmp(Op::kLt, var("n"), lit("1")), var("nope")),
      FilterExpr::And(truth, var("nope")),
      FilterExpr::Or(lit(""), FilterExpr::Not(var("nope"))),
      FilterExpr::Not(FilterExpr::And(
          fn(FilterExpr::Func::kBound, {var("w")}),
          FilterExpr::Or(cmp(Op::kEq, var("name"), lit("x")),
                         fn(FilterExpr::Func::kStrEnds,
                            {var("name"), lit("sapiens")})))),
  };
  const rdf::Binding binding = MakeBinding();
  for (const FilterExprPtr& filter : filters) {
    Result<bool> fast = filter->EvalBool(binding);
    Result<Term> term = filter->Eval(binding);
    ASSERT_EQ(fast.ok(), term.ok()) << filter->ToString();
    if (!fast.ok()) {
      EXPECT_EQ(fast.status().code(), term.status().code())
          << filter->ToString();
      EXPECT_EQ(fast.status().message(), term.status().message())
          << filter->ToString();
      continue;
    }
    EXPECT_EQ(*fast, EffectiveBool(*term)) << filter->ToString();
  }
}

TEST(FilterExprTest, IsSimpleVarFilter) {
  std::string var;
  auto cmp = FilterExpr::Compare(
      FilterExpr::CompareOp::kEq, FilterExpr::Var("sp"),
      FilterExpr::Literal(Term::Literal("Homo sapiens")));
  EXPECT_TRUE(IsSimpleVarFilter(*cmp, &var));
  EXPECT_EQ(var, "sp");

  auto flipped = FilterExpr::Compare(
      FilterExpr::CompareOp::kLt,
      FilterExpr::Literal(Term::Literal("5", rdf::kXsdInteger)),
      FilterExpr::Var("w"));
  EXPECT_TRUE(IsSimpleVarFilter(*flipped, &var));
  EXPECT_EQ(var, "w");

  auto contains = FilterExpr::Function(
      FilterExpr::Func::kContains,
      {FilterExpr::Var("n"), FilterExpr::Literal(Term::Literal("x"))});
  EXPECT_TRUE(IsSimpleVarFilter(*contains, &var));
  EXPECT_EQ(var, "n");

  // STR() wrapping is looked through
  auto wrapped = FilterExpr::Function(
      FilterExpr::Func::kStrStarts,
      {FilterExpr::Function(FilterExpr::Func::kStr, {FilterExpr::Var("s")}),
       FilterExpr::Literal(Term::Literal("http"))});
  EXPECT_TRUE(IsSimpleVarFilter(*wrapped, &var));
  EXPECT_EQ(var, "s");

  // var-to-var comparison is not simple
  auto varvar = FilterExpr::Compare(FilterExpr::CompareOp::kEq,
                                    FilterExpr::Var("a"),
                                    FilterExpr::Var("b"));
  EXPECT_FALSE(IsSimpleVarFilter(*varvar, &var));
  // conjunctions are not simple
  EXPECT_FALSE(IsSimpleVarFilter(*FilterExpr::And(cmp, contains), &var));
}

TEST(FilterExprTest, SplitFilterConjuncts) {
  auto a = FilterExpr::Var("a");
  auto b = FilterExpr::Var("b");
  auto c = FilterExpr::Var("c");
  auto conj = FilterExpr::And(FilterExpr::And(a, b), c);
  auto parts = SplitFilterConjuncts(conj);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_TRUE(SplitFilterConjuncts(nullptr).empty());
  auto disj = FilterExpr::Or(a, b);
  EXPECT_EQ(SplitFilterConjuncts(disj).size(), 1u);
}

TEST(FilterExprTest, CollectVariables) {
  auto e = FilterExpr::And(
      FilterExpr::Compare(FilterExpr::CompareOp::kGt, FilterExpr::Var("w"),
                          FilterExpr::Literal(Term::Literal("1"))),
      FilterExpr::Function(FilterExpr::Func::kContains,
                           {FilterExpr::Var("n"),
                            FilterExpr::Literal(Term::Literal("x"))}));
  std::vector<std::string> vars;
  e->CollectVariables(&vars);
  EXPECT_EQ(vars, (std::vector<std::string>{"w", "n"}));
}

}  // namespace
}  // namespace lakefed::sparql
