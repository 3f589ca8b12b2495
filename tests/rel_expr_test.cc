#include "rel/expr.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

namespace lakefed::rel {
namespace {

class ExprEvalTest : public ::testing::Test {
 protected:
  Schema schema_{{{"id", ColumnType::kInt64, false},
                  {"name", ColumnType::kString, true},
                  {"score", ColumnType::kDouble, true}}};
  Row row_{Value(int64_t{7}), Value("alice"), Value(3.5)};

  Value Eval(const ExprPtr& e) {
    auto r = e->Eval(row_, schema_);
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() ? *r : Value::Null();
  }

  bool Pred(const ExprPtr& e) {
    auto r = EvalPredicate(*e, row_, schema_);
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() && *r;
  }
};

TEST_F(ExprEvalTest, ColumnAndLiteral) {
  EXPECT_EQ(Eval(MakeColumn("id")).AsInt(), 7);
  EXPECT_EQ(Eval(MakeColumn("name")).AsString(), "alice");
  EXPECT_EQ(Eval(MakeLiteral(Value(int64_t{3}))).AsInt(), 3);
  EXPECT_TRUE(MakeColumn("missing")->Eval(row_, schema_).status().IsNotFound());
}

TEST_F(ExprEvalTest, Comparisons) {
  EXPECT_TRUE(Pred(MakeBinary(BinaryOp::kEq, MakeColumn("id"),
                              MakeLiteral(Value(int64_t{7})))));
  EXPECT_TRUE(Pred(MakeBinary(BinaryOp::kLt, MakeColumn("id"),
                              MakeLiteral(Value(int64_t{8})))));
  EXPECT_FALSE(Pred(MakeBinary(BinaryOp::kGt, MakeColumn("id"),
                               MakeLiteral(Value(int64_t{7})))));
  EXPECT_TRUE(Pred(MakeBinary(BinaryOp::kGe, MakeColumn("id"),
                              MakeLiteral(Value(int64_t{7})))));
  EXPECT_TRUE(Pred(MakeBinary(BinaryOp::kNe, MakeColumn("name"),
                              MakeLiteral(Value("bob")))));
  // Mixed int/double comparison.
  EXPECT_TRUE(Pred(MakeBinary(BinaryOp::kEq, MakeColumn("score"),
                              MakeLiteral(Value(3.5)))));
}

TEST_F(ExprEvalTest, NullComparesFalse) {
  Row null_row{Value(int64_t{1}), Value::Null(), Value::Null()};
  auto eq = MakeBinary(BinaryOp::kEq, MakeColumn("name"),
                       MakeLiteral(Value("alice")));
  auto r = EvalPredicate(*eq, null_row, schema_);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
  auto ne = MakeBinary(BinaryOp::kNe, MakeColumn("name"),
                       MakeLiteral(Value("alice")));
  r = EvalPredicate(*ne, null_row, schema_);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);  // NULL != x is also false (not three-valued)
}

TEST_F(ExprEvalTest, LogicalShortCircuit) {
  auto true_expr = MakeLiteral(Value(int64_t{1}));
  auto false_expr = MakeLiteral(Value(int64_t{0}));
  // The RHS references a missing column; short-circuit must avoid it.
  auto bad = MakeColumn("missing");
  EXPECT_FALSE(Pred(MakeBinary(BinaryOp::kAnd, false_expr, bad)));
  EXPECT_TRUE(Pred(MakeBinary(BinaryOp::kOr, true_expr, bad)));
}

TEST_F(ExprEvalTest, NotExpr) {
  EXPECT_FALSE(Pred(std::make_shared<NotExpr>(MakeLiteral(Value(int64_t{1})))));
  EXPECT_TRUE(Pred(std::make_shared<NotExpr>(MakeLiteral(Value(int64_t{0})))));
}

TEST_F(ExprEvalTest, Arithmetic) {
  auto sum = MakeBinary(BinaryOp::kAdd, MakeColumn("id"),
                        MakeLiteral(Value(int64_t{3})));
  EXPECT_EQ(Eval(sum).AsInt(), 10);
  auto mixed = MakeBinary(BinaryOp::kMul, MakeColumn("score"),
                          MakeLiteral(Value(int64_t{2})));
  EXPECT_DOUBLE_EQ(Eval(mixed).AsDouble(), 7.0);
  auto div0 = MakeBinary(BinaryOp::kDiv, MakeColumn("id"),
                         MakeLiteral(Value(int64_t{0})));
  EXPECT_TRUE(Eval(div0).is_null());
  auto bad = MakeBinary(BinaryOp::kAdd, MakeColumn("name"),
                        MakeLiteral(Value(int64_t{1})));
  EXPECT_TRUE(bad->Eval(row_, schema_).status().IsTypeError());
}

TEST_F(ExprEvalTest, LikeInIsNull) {
  EXPECT_TRUE(Pred(std::make_shared<LikeExpr>(MakeColumn("name"), "ali%")));
  EXPECT_FALSE(Pred(std::make_shared<LikeExpr>(MakeColumn("name"), "bob%")));
  EXPECT_TRUE(Pred(std::make_shared<LikeExpr>(MakeColumn("name"), "bob%",
                                              /*negated=*/true)));
  EXPECT_TRUE(Pred(std::make_shared<InExpr>(
      MakeColumn("id"),
      std::vector<Value>{Value(int64_t{5}), Value(int64_t{7})})));
  EXPECT_FALSE(Pred(std::make_shared<InExpr>(
      MakeColumn("id"), std::vector<Value>{Value(int64_t{5})})));
  EXPECT_FALSE(
      Pred(std::make_shared<IsNullExpr>(MakeColumn("name"), false)));
  EXPECT_TRUE(Pred(std::make_shared<IsNullExpr>(MakeColumn("name"), true)));
}

TEST_F(ExprEvalTest, BindColumnsResolvesIndicesOnce) {
  ExprPtr col = MakeColumn("score");
  ExprPtr bound = BindColumns(col, schema_);
  ASSERT_EQ(bound->kind(), Expr::Kind::kColumnRef);
  EXPECT_EQ(static_cast<const ColumnRefExpr&>(*bound).index(),
            std::optional<size_t>(2));
  // A copy: the unbound original is untouched and renders the same.
  EXPECT_FALSE(static_cast<const ColumnRefExpr&>(*col).index().has_value());
  EXPECT_EQ(bound->ToString(), col->ToString());
  // Bound references read their index, not the schema they are handed.
  Schema renamed{{{"a", ColumnType::kInt64, false},
                  {"b", ColumnType::kString, true},
                  {"c", ColumnType::kDouble, true}}};
  auto r = bound->Eval(row_, renamed);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_DOUBLE_EQ(r->AsDouble(), 3.5);
}

TEST_F(ExprEvalTest, BindColumnsEvaluatesLikeUnboundOverEveryKind) {
  std::vector<ExprPtr> exprs = {
      MakeBinary(BinaryOp::kAnd,
                 MakeBinary(BinaryOp::kGt, MakeColumn("id"),
                            MakeLiteral(Value(int64_t{5}))),
                 MakeBinary(BinaryOp::kLt, MakeColumn("score"),
                            MakeLiteral(Value(4.0)))),
      std::make_shared<NotExpr>(MakeBinary(BinaryOp::kEq, MakeColumn("name"),
                                           MakeLiteral(Value("bob")))),
      std::make_shared<LikeExpr>(MakeColumn("name"), "ali%"),
      std::make_shared<InExpr>(MakeColumn("id"),
                               std::vector<Value>{Value(int64_t{7})}),
      std::make_shared<IsNullExpr>(MakeColumn("name"), true),
      MakeBinary(BinaryOp::kAdd, MakeColumn("id"), MakeColumn("score")),
  };
  for (const ExprPtr& e : exprs) {
    ExprPtr bound = BindColumns(e, schema_);
    EXPECT_EQ(bound->ToString(), e->ToString());
    EXPECT_EQ(Eval(bound).ToString(), Eval(e).ToString()) << e->ToString();
  }
  EXPECT_EQ(BindColumns(nullptr, schema_), nullptr);
}

TEST_F(ExprEvalTest, BindColumnsLeavesUnknownColumnsNotFound) {
  ExprPtr bound = BindColumns(
      MakeBinary(BinaryOp::kEq, MakeColumn("missing"), MakeColumn("id")),
      schema_);
  auto r = bound->Eval(row_, schema_);
  EXPECT_TRUE(r.status().IsNotFound()) << r.status();
}

TEST(ExprHelpersTest, SplitConjuncts) {
  auto e = MakeAndAll({MakeColumn("a"), MakeColumn("b"), MakeColumn("c")});
  auto parts = SplitConjuncts(e);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_TRUE(SplitConjuncts(nullptr).empty());
  // OR is not split.
  auto or_expr = MakeBinary(BinaryOp::kOr, MakeColumn("a"), MakeColumn("b"));
  EXPECT_EQ(SplitConjuncts(or_expr).size(), 1u);
}

TEST(ExprHelpersTest, MakeAndHandlesNull) {
  EXPECT_EQ(MakeAnd(nullptr, nullptr), nullptr);
  auto a = MakeColumn("a");
  EXPECT_EQ(MakeAnd(a, nullptr), a);
  EXPECT_EQ(MakeAnd(nullptr, a), a);
  EXPECT_EQ(MakeAndAll({}), nullptr);
}

TEST(ExprHelpersTest, MatchColumnLiteral) {
  std::string col;
  BinaryOp op;
  Value lit;
  auto e = MakeBinary(BinaryOp::kLt, MakeColumn("t.a"),
                      MakeLiteral(Value(int64_t{5})));
  ASSERT_TRUE(MatchColumnLiteral(*e, &col, &op, &lit));
  EXPECT_EQ(col, "t.a");
  EXPECT_EQ(op, BinaryOp::kLt);
  EXPECT_EQ(lit.AsInt(), 5);
  // literal on the left mirrors the operator
  auto flipped = MakeBinary(BinaryOp::kLt, MakeLiteral(Value(int64_t{5})),
                            MakeColumn("t.a"));
  ASSERT_TRUE(MatchColumnLiteral(*flipped, &col, &op, &lit));
  EXPECT_EQ(op, BinaryOp::kGt);
  // non-matches
  auto colcol = MakeBinary(BinaryOp::kEq, MakeColumn("a"), MakeColumn("b"));
  EXPECT_FALSE(MatchColumnLiteral(*colcol, &col, &op, &lit));
  auto litlit = MakeBinary(BinaryOp::kEq, MakeLiteral(Value(int64_t{1})),
                           MakeLiteral(Value(int64_t{1})));
  EXPECT_FALSE(MatchColumnLiteral(*litlit, &col, &op, &lit));
}

TEST(ExprHelpersTest, MatchColumnEquality) {
  std::string l, r;
  auto e = MakeBinary(BinaryOp::kEq, MakeColumn("a.x"), MakeColumn("b.y"));
  ASSERT_TRUE(MatchColumnEquality(*e, &l, &r));
  EXPECT_EQ(l, "a.x");
  EXPECT_EQ(r, "b.y");
  auto ne = MakeBinary(BinaryOp::kNe, MakeColumn("a.x"), MakeColumn("b.y"));
  EXPECT_FALSE(MatchColumnEquality(*ne, &l, &r));
}

TEST(ExprRenderTest, ToStringForms) {
  EXPECT_EQ(MakeBinary(BinaryOp::kEq, MakeColumn("a"),
                       MakeLiteral(Value(int64_t{1})))
                ->ToString(),
            "(a = 1)");
  EXPECT_EQ(std::make_shared<LikeExpr>(MakeColumn("n"), "x%")->ToString(),
            "n LIKE 'x%'");
  EXPECT_EQ(std::make_shared<InExpr>(
                MakeColumn("i"),
                std::vector<Value>{Value(int64_t{1}), Value("a'b")})
                ->ToString(),
            "i IN (1, 'a''b')");
}

}  // namespace
}  // namespace lakefed::rel
