#include "rel/expr.h"

#include "common/string_util.h"

namespace lakefed::rel {

std::string BinaryOpToString(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq: return "=";
    case BinaryOp::kNe: return "<>";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kAnd: return "AND";
    case BinaryOp::kOr: return "OR";
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
  }
  return "?";
}

bool IsComparisonOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

namespace {

Value BoolValue(bool b) { return Value(static_cast<int64_t>(b ? 1 : 0)); }

bool Truthy(const Value& v) {
  if (v.is_null()) return false;
  if (v.is_int()) return v.AsInt() != 0;
  if (v.is_double()) return v.AsDouble() != 0.0;
  return !v.AsString().empty();
}

}  // namespace

Result<Value> ColumnRefExpr::Eval(const Row& row, const Schema& schema) const {
  if (index_.has_value()) return row[*index_];
  LAKEFED_ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(name_));
  return row[idx];
}

Result<Value> BinaryExpr::Eval(const Row& row, const Schema& schema) const {
  if (op_ == BinaryOp::kAnd || op_ == BinaryOp::kOr) {
    LAKEFED_ASSIGN_OR_RETURN(Value lhs, lhs_->Eval(row, schema));
    bool l = Truthy(lhs);
    // Short-circuit.
    if (op_ == BinaryOp::kAnd && !l) return BoolValue(false);
    if (op_ == BinaryOp::kOr && l) return BoolValue(true);
    LAKEFED_ASSIGN_OR_RETURN(Value rhs, rhs_->Eval(row, schema));
    return BoolValue(Truthy(rhs));
  }

  LAKEFED_ASSIGN_OR_RETURN(Value lhs, lhs_->Eval(row, schema));
  LAKEFED_ASSIGN_OR_RETURN(Value rhs, rhs_->Eval(row, schema));

  if (IsComparisonOp(op_)) {
    if (lhs.is_null() || rhs.is_null()) return BoolValue(false);
    int c = lhs.Compare(rhs);
    switch (op_) {
      case BinaryOp::kEq: return BoolValue(c == 0);
      case BinaryOp::kNe: return BoolValue(c != 0);
      case BinaryOp::kLt: return BoolValue(c < 0);
      case BinaryOp::kLe: return BoolValue(c <= 0);
      case BinaryOp::kGt: return BoolValue(c > 0);
      case BinaryOp::kGe: return BoolValue(c >= 0);
      default: break;
    }
  }

  // Arithmetic.
  if (lhs.is_null() || rhs.is_null()) return Value::Null();
  if (!lhs.is_numeric() || !rhs.is_numeric()) {
    return Status::TypeError("arithmetic on non-numeric values: " +
                             lhs.ToString() + " " + BinaryOpToString(op_) +
                             " " + rhs.ToString());
  }
  if (lhs.is_int() && rhs.is_int() && op_ != BinaryOp::kDiv) {
    int64_t a = lhs.AsInt(), b = rhs.AsInt();
    switch (op_) {
      case BinaryOp::kAdd: return Value(a + b);
      case BinaryOp::kSub: return Value(a - b);
      case BinaryOp::kMul: return Value(a * b);
      default: break;
    }
  }
  double a = lhs.AsDouble(), b = rhs.AsDouble();
  switch (op_) {
    case BinaryOp::kAdd: return Value(a + b);
    case BinaryOp::kSub: return Value(a - b);
    case BinaryOp::kMul: return Value(a * b);
    case BinaryOp::kDiv:
      if (b == 0.0) return Value::Null();
      return Value(a / b);
    default:
      return Status::Internal("unhandled binary op");
  }
}

std::string BinaryExpr::ToString() const {
  return "(" + lhs_->ToString() + " " + BinaryOpToString(op_) + " " +
         rhs_->ToString() + ")";
}

Result<Value> NotExpr::Eval(const Row& row, const Schema& schema) const {
  LAKEFED_ASSIGN_OR_RETURN(Value v, operand_->Eval(row, schema));
  return BoolValue(!Truthy(v));
}

Result<Value> LikeExpr::Eval(const Row& row, const Schema& schema) const {
  LAKEFED_ASSIGN_OR_RETURN(Value v, operand_->Eval(row, schema));
  if (v.is_null()) return BoolValue(false);
  if (!v.is_string()) {
    return Status::TypeError("LIKE on non-string value: " + v.ToString());
  }
  bool match = SqlLikeMatch(v.AsString(), pattern_);
  return BoolValue(negated_ ? !match : match);
}

std::string LikeExpr::ToString() const {
  return operand_->ToString() + (negated_ ? " NOT LIKE '" : " LIKE '") +
         ReplaceAll(pattern_, "'", "''") + "'";
}

Result<Value> InExpr::Eval(const Row& row, const Schema& schema) const {
  LAKEFED_ASSIGN_OR_RETURN(Value v, operand_->Eval(row, schema));
  if (v.is_null()) return BoolValue(false);
  bool found = false;
  for (const Value& candidate : values_) {
    if (v == candidate) {
      found = true;
      break;
    }
  }
  return BoolValue(negated_ ? !found : found);
}

std::string InExpr::ToString() const {
  std::string out =
      operand_->ToString() + (negated_ ? " NOT IN (" : " IN (");
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out += ", ";
    out += values_[i].ToSqlLiteral();
  }
  return out + ")";
}

Result<Value> IsNullExpr::Eval(const Row& row, const Schema& schema) const {
  LAKEFED_ASSIGN_OR_RETURN(Value v, operand_->Eval(row, schema));
  return BoolValue(negated_ ? !v.is_null() : v.is_null());
}

ExprPtr MakeColumn(std::string name) {
  return std::make_shared<ColumnRefExpr>(std::move(name));
}

ExprPtr MakeLiteral(Value value) {
  return std::make_shared<LiteralExpr>(std::move(value));
}

ExprPtr MakeBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<BinaryExpr>(op, std::move(lhs), std::move(rhs));
}

ExprPtr MakeAnd(ExprPtr lhs, ExprPtr rhs) {
  if (lhs == nullptr) return rhs;
  if (rhs == nullptr) return lhs;
  return MakeBinary(BinaryOp::kAnd, std::move(lhs), std::move(rhs));
}

ExprPtr MakeAndAll(std::vector<ExprPtr> conjuncts) {
  ExprPtr out;
  for (ExprPtr& c : conjuncts) out = MakeAnd(std::move(out), std::move(c));
  return out;
}

ExprPtr BindColumns(const ExprPtr& expr, const Schema& schema) {
  if (expr == nullptr) return nullptr;
  switch (expr->kind()) {
    case Expr::Kind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(*expr);
      return std::make_shared<ColumnRefExpr>(ref.name(),
                                             schema.FindColumn(ref.name()));
    }
    case Expr::Kind::kLiteral:
      return expr;
    case Expr::Kind::kBinary: {
      const auto& e = static_cast<const BinaryExpr&>(*expr);
      return MakeBinary(e.op(), BindColumns(e.lhs(), schema),
                        BindColumns(e.rhs(), schema));
    }
    case Expr::Kind::kNot: {
      const auto& e = static_cast<const NotExpr&>(*expr);
      return std::make_shared<NotExpr>(BindColumns(e.operand(), schema));
    }
    case Expr::Kind::kLike: {
      const auto& e = static_cast<const LikeExpr&>(*expr);
      return std::make_shared<LikeExpr>(BindColumns(e.operand(), schema),
                                        e.pattern(), e.negated());
    }
    case Expr::Kind::kIn: {
      const auto& e = static_cast<const InExpr&>(*expr);
      return std::make_shared<InExpr>(BindColumns(e.operand(), schema),
                                      e.values(), e.negated());
    }
    case Expr::Kind::kIsNull: {
      const auto& e = static_cast<const IsNullExpr&>(*expr);
      return std::make_shared<IsNullExpr>(BindColumns(e.operand(), schema),
                                          e.negated());
    }
  }
  return expr;
}

Result<bool> EvalPredicate(const Expr& expr, const Row& row,
                           const Schema& schema) {
  LAKEFED_ASSIGN_OR_RETURN(Value v, expr.Eval(row, schema));
  return Truthy(v);
}

std::vector<ExprPtr> SplitConjuncts(const ExprPtr& expr) {
  std::vector<ExprPtr> out;
  if (expr == nullptr) return out;
  if (expr->kind() == Expr::Kind::kBinary) {
    const auto* bin = static_cast<const BinaryExpr*>(expr.get());
    if (bin->op() == BinaryOp::kAnd) {
      auto left = SplitConjuncts(bin->lhs());
      auto right = SplitConjuncts(bin->rhs());
      out.insert(out.end(), left.begin(), left.end());
      out.insert(out.end(), right.begin(), right.end());
      return out;
    }
  }
  out.push_back(expr);
  return out;
}

bool MatchColumnLiteral(const Expr& expr, std::string* column, BinaryOp* op,
                        Value* literal) {
  if (expr.kind() != Expr::Kind::kBinary) return false;
  const auto& bin = static_cast<const BinaryExpr&>(expr);
  if (!IsComparisonOp(bin.op())) return false;
  const Expr* lhs = bin.lhs().get();
  const Expr* rhs = bin.rhs().get();
  BinaryOp cmp = bin.op();
  if (lhs->kind() == Expr::Kind::kLiteral &&
      rhs->kind() == Expr::Kind::kColumnRef) {
    std::swap(lhs, rhs);
    // Mirror the comparison when swapping sides.
    switch (cmp) {
      case BinaryOp::kLt: cmp = BinaryOp::kGt; break;
      case BinaryOp::kLe: cmp = BinaryOp::kGe; break;
      case BinaryOp::kGt: cmp = BinaryOp::kLt; break;
      case BinaryOp::kGe: cmp = BinaryOp::kLe; break;
      default: break;
    }
  }
  if (lhs->kind() != Expr::Kind::kColumnRef ||
      rhs->kind() != Expr::Kind::kLiteral) {
    return false;
  }
  *column = static_cast<const ColumnRefExpr*>(lhs)->name();
  *op = cmp;
  *literal = static_cast<const LiteralExpr*>(rhs)->value();
  return true;
}

bool MatchColumnEquality(const Expr& expr, std::string* left,
                         std::string* right) {
  if (expr.kind() != Expr::Kind::kBinary) return false;
  const auto& bin = static_cast<const BinaryExpr&>(expr);
  if (bin.op() != BinaryOp::kEq) return false;
  if (bin.lhs()->kind() != Expr::Kind::kColumnRef ||
      bin.rhs()->kind() != Expr::Kind::kColumnRef) {
    return false;
  }
  *left = static_cast<const ColumnRefExpr*>(bin.lhs().get())->name();
  *right = static_cast<const ColumnRefExpr*>(bin.rhs().get())->name();
  return true;
}

}  // namespace lakefed::rel
