// SQL scalar/predicate expressions: AST, evaluation over a row, rendering
// back to SQL, and the pattern-matching helpers the planner uses to find
// sargable predicates.

#ifndef LAKEFED_REL_EXPR_H_
#define LAKEFED_REL_EXPR_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "rel/schema.h"
#include "rel/value.h"

namespace lakefed::rel {

class Expr;
using ExprPtr = std::shared_ptr<Expr>;

enum class BinaryOp {
  kEq, kNe, kLt, kLe, kGt, kGe,  // comparisons
  kAnd, kOr,                     // logical
  kAdd, kSub, kMul, kDiv,        // arithmetic
};

std::string BinaryOpToString(BinaryOp op);
bool IsComparisonOp(BinaryOp op);

class Expr {
 public:
  enum class Kind { kColumnRef, kLiteral, kBinary, kNot, kLike, kIn, kIsNull };

  virtual ~Expr() = default;

  virtual Kind kind() const = 0;
  // Evaluates against `row` interpreted through `schema`. Booleans are
  // encoded as INT64 0/1; comparisons involving NULL evaluate to 0 (false),
  // matching the pragmatic non-three-valued semantics used throughout.
  virtual Result<Value> Eval(const Row& row, const Schema& schema) const = 0;
  virtual std::string ToString() const = 0;
  virtual void CollectColumns(std::vector<std::string>* out) const = 0;
};

// A column reference. Unbound, Eval looks the name up in the schema it is
// given; bound (see BindColumns), it reads its column index directly.
class ColumnRefExpr : public Expr {
 public:
  explicit ColumnRefExpr(std::string name,
                         std::optional<size_t> index = std::nullopt)
      : name_(std::move(name)), index_(index) {}
  Kind kind() const override { return Kind::kColumnRef; }
  Result<Value> Eval(const Row& row, const Schema& schema) const override;
  std::string ToString() const override { return name_; }
  void CollectColumns(std::vector<std::string>* out) const override {
    out->push_back(name_);
  }
  const std::string& name() const { return name_; }
  const std::optional<size_t>& index() const { return index_; }

 private:
  std::string name_;
  std::optional<size_t> index_;
};

class LiteralExpr : public Expr {
 public:
  explicit LiteralExpr(Value value) : value_(std::move(value)) {}
  Kind kind() const override { return Kind::kLiteral; }
  Result<Value> Eval(const Row&, const Schema&) const override {
    return value_;
  }
  std::string ToString() const override { return value_.ToSqlLiteral(); }
  void CollectColumns(std::vector<std::string>*) const override {}
  const Value& value() const { return value_; }

 private:
  Value value_;
};

class BinaryExpr : public Expr {
 public:
  BinaryExpr(BinaryOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}
  Kind kind() const override { return Kind::kBinary; }
  Result<Value> Eval(const Row& row, const Schema& schema) const override;
  std::string ToString() const override;
  void CollectColumns(std::vector<std::string>* out) const override {
    lhs_->CollectColumns(out);
    rhs_->CollectColumns(out);
  }
  BinaryOp op() const { return op_; }
  const ExprPtr& lhs() const { return lhs_; }
  const ExprPtr& rhs() const { return rhs_; }

 private:
  BinaryOp op_;
  ExprPtr lhs_, rhs_;
};

class NotExpr : public Expr {
 public:
  explicit NotExpr(ExprPtr operand) : operand_(std::move(operand)) {}
  Kind kind() const override { return Kind::kNot; }
  Result<Value> Eval(const Row& row, const Schema& schema) const override;
  std::string ToString() const override {
    return "NOT (" + operand_->ToString() + ")";
  }
  void CollectColumns(std::vector<std::string>* out) const override {
    operand_->CollectColumns(out);
  }
  const ExprPtr& operand() const { return operand_; }

 private:
  ExprPtr operand_;
};

class LikeExpr : public Expr {
 public:
  LikeExpr(ExprPtr operand, std::string pattern, bool negated = false)
      : operand_(std::move(operand)),
        pattern_(std::move(pattern)),
        negated_(negated) {}
  Kind kind() const override { return Kind::kLike; }
  Result<Value> Eval(const Row& row, const Schema& schema) const override;
  std::string ToString() const override;
  void CollectColumns(std::vector<std::string>* out) const override {
    operand_->CollectColumns(out);
  }
  const ExprPtr& operand() const { return operand_; }
  const std::string& pattern() const { return pattern_; }
  bool negated() const { return negated_; }

 private:
  ExprPtr operand_;
  std::string pattern_;
  bool negated_;
};

class InExpr : public Expr {
 public:
  InExpr(ExprPtr operand, std::vector<Value> values, bool negated = false)
      : operand_(std::move(operand)),
        values_(std::move(values)),
        negated_(negated) {}
  Kind kind() const override { return Kind::kIn; }
  Result<Value> Eval(const Row& row, const Schema& schema) const override;
  std::string ToString() const override;
  void CollectColumns(std::vector<std::string>* out) const override {
    operand_->CollectColumns(out);
  }
  const ExprPtr& operand() const { return operand_; }
  const std::vector<Value>& values() const { return values_; }
  bool negated() const { return negated_; }

 private:
  ExprPtr operand_;
  std::vector<Value> values_;
  bool negated_;
};

class IsNullExpr : public Expr {
 public:
  IsNullExpr(ExprPtr operand, bool negated)
      : operand_(std::move(operand)), negated_(negated) {}
  Kind kind() const override { return Kind::kIsNull; }
  Result<Value> Eval(const Row& row, const Schema& schema) const override;
  std::string ToString() const override {
    return operand_->ToString() + (negated_ ? " IS NOT NULL" : " IS NULL");
  }
  void CollectColumns(std::vector<std::string>* out) const override {
    operand_->CollectColumns(out);
  }
  const ExprPtr& operand() const { return operand_; }
  bool negated() const { return negated_; }

 private:
  ExprPtr operand_;
  bool negated_;
};

// --- construction helpers -------------------------------------------------

ExprPtr MakeColumn(std::string name);
ExprPtr MakeLiteral(Value value);
ExprPtr MakeBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr MakeAnd(ExprPtr lhs, ExprPtr rhs);           // either side may be null
ExprPtr MakeAndAll(std::vector<ExprPtr> conjuncts);  // nullptr if empty

// A copy of `expr` whose column references carry their index in `schema`,
// so Eval skips the by-name lookup on every row. The copy must only be
// evaluated against rows of `schema`. References to columns `schema` lacks
// stay unbound and still fail with NotFound when evaluated. Null in, null
// out.
ExprPtr BindColumns(const ExprPtr& expr, const Schema& schema);

// Evaluates `expr` as a predicate: non-zero / non-empty-string = true,
// NULL = false.
Result<bool> EvalPredicate(const Expr& expr, const Row& row,
                           const Schema& schema);

// --- planner pattern matching ----------------------------------------------

// Flattens nested ANDs into a conjunct list.
std::vector<ExprPtr> SplitConjuncts(const ExprPtr& expr);

// Matches `column <cmp> literal` or `literal <cmp> column` (the comparison is
// normalized to put the column on the left). Returns true on match.
bool MatchColumnLiteral(const Expr& expr, std::string* column, BinaryOp* op,
                        Value* literal);

// Matches `columnA = columnB`.
bool MatchColumnEquality(const Expr& expr, std::string* left,
                         std::string* right);

}  // namespace lakefed::rel

#endif  // LAKEFED_REL_EXPR_H_
