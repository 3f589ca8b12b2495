#include "sparql/filter_expr.h"

#include <cstdlib>
#include <cstring>
#include <regex>

#include "common/string_util.h"

namespace lakefed::sparql {
namespace {

const char kXsdBoolean[] = "http://www.w3.org/2001/XMLSchema#boolean";

rdf::Term BoolTerm(bool b) {
  return rdf::Term::Literal(b ? "true" : "false", kXsdBoolean);
}

bool CompareHolds(FilterExpr::CompareOp op, const rdf::Term& lhs,
                  const rdf::Term& rhs) {
  int c = CompareTermsSparql(lhs, rhs);
  switch (op) {
    case FilterExpr::CompareOp::kEq: return c == 0;
    case FilterExpr::CompareOp::kNe: return c != 0;
    case FilterExpr::CompareOp::kLt: return c < 0;
    case FilterExpr::CompareOp::kLe: return c <= 0;
    case FilterExpr::CompareOp::kGt: return c > 0;
    case FilterExpr::CompareOp::kGe: return c >= 0;
  }
  return false;
}

}  // namespace

bool EffectiveBool(const rdf::Term& term) {
  if (!term.is_literal()) return true;  // IRIs/blanks are truthy
  if (term.datatype() == kXsdBoolean) return term.value() == "true";
  if (auto n = TryNumericTerm(term)) return *n != 0.0;
  return !term.value().empty();
}

std::optional<double> TryNumericTerm(const rdf::Term& term) {
  if (!term.is_literal()) return std::nullopt;
  std::string_view dt = term.datatype();
  bool numeric_dt = Contains(dt, "integer") || Contains(dt, "double") ||
                    Contains(dt, "decimal") || Contains(dt, "float") ||
                    Contains(dt, "int") || Contains(dt, "long");
  if (!dt.empty() && !numeric_dt) return std::nullopt;
  std::string_view s = term.value();
  if (s.empty()) return std::nullopt;
  // strtod needs a terminated string: parse a stack copy, or a heap copy
  // of a lexical form too long for it.
  char stack_copy[64];
  std::string heap_copy;
  const char* text = stack_copy;
  if (s.size() < sizeof(stack_copy)) {
    std::memcpy(stack_copy, s.data(), s.size());
    stack_copy[s.size()] = '\0';
  } else {
    heap_copy.assign(s);
    text = heap_copy.c_str();
  }
  char* end = nullptr;
  double v = std::strtod(text, &end);
  if (end != text + s.size()) return std::nullopt;
  return v;
}

int CompareTermsSparql(const rdf::Term& a, const rdf::Term& b) {
  auto na = TryNumericTerm(a), nb = TryNumericTerm(b);
  if (na.has_value() && nb.has_value()) {
    if (*na < *nb) return -1;
    if (*na > *nb) return 1;
    return 0;
  }
  int c = a.value().compare(b.value());
  return c < 0 ? -1 : (c == 0 ? 0 : 1);
}

FilterExprPtr FilterExpr::Var(std::string name) {
  auto e = FilterExprPtr(new FilterExpr());
  e->kind_ = Kind::kVar;
  e->var_ = std::move(name);
  return e;
}

FilterExprPtr FilterExpr::Literal(rdf::Term term) {
  auto e = FilterExprPtr(new FilterExpr());
  e->kind_ = Kind::kLiteral;
  e->literal_ = std::move(term);
  return e;
}

FilterExprPtr FilterExpr::Compare(CompareOp op, FilterExprPtr lhs,
                                  FilterExprPtr rhs) {
  auto e = FilterExprPtr(new FilterExpr());
  e->kind_ = Kind::kCompare;
  e->compare_op_ = op;
  e->args_ = {std::move(lhs), std::move(rhs)};
  return e;
}

FilterExprPtr FilterExpr::And(FilterExprPtr lhs, FilterExprPtr rhs) {
  auto e = FilterExprPtr(new FilterExpr());
  e->kind_ = Kind::kAnd;
  e->args_ = {std::move(lhs), std::move(rhs)};
  return e;
}

FilterExprPtr FilterExpr::Or(FilterExprPtr lhs, FilterExprPtr rhs) {
  auto e = FilterExprPtr(new FilterExpr());
  e->kind_ = Kind::kOr;
  e->args_ = {std::move(lhs), std::move(rhs)};
  return e;
}

FilterExprPtr FilterExpr::Not(FilterExprPtr operand) {
  auto e = FilterExprPtr(new FilterExpr());
  e->kind_ = Kind::kNot;
  e->args_ = {std::move(operand)};
  return e;
}

FilterExprPtr FilterExpr::Function(Func func,
                                   std::vector<FilterExprPtr> args) {
  auto e = FilterExprPtr(new FilterExpr());
  e->kind_ = Kind::kFunction;
  e->func_ = func;
  e->args_ = std::move(args);
  return e;
}

Result<rdf::Term> FilterExpr::Eval(const rdf::Binding& binding) const {
  switch (kind_) {
    case Kind::kVar: {
      auto it = binding.find(var_);
      if (it == binding.end()) {
        return Status::NotFound("unbound variable ?" + var_);
      }
      return it->second;
    }
    case Kind::kLiteral:
      return literal_;
    case Kind::kCompare: {
      LAKEFED_ASSIGN_OR_RETURN(rdf::Term lhs, args_[0]->Eval(binding));
      LAKEFED_ASSIGN_OR_RETURN(rdf::Term rhs, args_[1]->Eval(binding));
      return BoolTerm(CompareHolds(compare_op_, lhs, rhs));
    }
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kNot: {
      // EvalBool evaluates the connectives without calling back into Eval.
      LAKEFED_ASSIGN_OR_RETURN(bool v, EvalBool(binding));
      return BoolTerm(v);
    }
    case Kind::kFunction:
      break;
  }

  // Functions.
  if (func_ == Func::kBound) {
    if (args_.size() != 1 || args_[0]->kind_ != Kind::kVar) {
      return Status::InvalidArgument("BOUND expects a variable");
    }
    return BoolTerm(binding.count(args_[0]->var_) > 0);
  }
  LAKEFED_ASSIGN_OR_RETURN(rdf::Term arg0, args_[0]->Eval(binding));
  switch (func_) {
    case Func::kStr:
      return rdf::Term::Literal(arg0.value());
    case Func::kLang:
      return rdf::Term::Literal(arg0.lang());
    case Func::kDatatype:
      return rdf::Term::Iri(arg0.datatype().empty() ? rdf::kXsdString
                                                    : arg0.datatype());
    case Func::kRegex:
    case Func::kContains:
    case Func::kStrStarts:
    case Func::kStrEnds: {
      if (args_.size() != 2) {
        return Status::InvalidArgument(FuncToString(func_) +
                                       " expects 2 arguments");
      }
      LAKEFED_ASSIGN_OR_RETURN(rdf::Term arg1, args_[1]->Eval(binding));
      std::string_view s = arg0.value();
      std::string_view t = arg1.value();
      switch (func_) {
        case Func::kContains:
          return BoolTerm(Contains(s, t));
        case Func::kStrStarts:
          return BoolTerm(StartsWith(s, t));
        case Func::kStrEnds:
          return BoolTerm(EndsWith(s, t));
        case Func::kRegex: {
          try {
            std::regex re(t.begin(), t.end());
            return BoolTerm(std::regex_search(s.begin(), s.end(), re));
          } catch (const std::regex_error&) {
            return Status::InvalidArgument("bad regex: " + std::string(t));
          }
        }
        default:
          break;
      }
      break;
    }
    default:
      break;
  }
  return Status::Internal("unhandled filter function");
}

const rdf::Term* FilterExpr::TermOperand(const rdf::Binding& binding) const {
  if (kind_ == Kind::kLiteral) return &literal_;
  if (kind_ != Kind::kVar) return nullptr;
  auto it = binding.find(var_);
  return it == binding.end() ? nullptr : &it->second;
}

Result<bool> FilterExpr::EvalBool(const rdf::Binding& binding) const {
  switch (kind_) {
    case Kind::kCompare: {
      const rdf::Term* lhs = args_[0]->TermOperand(binding);
      const rdf::Term* rhs = args_[1]->TermOperand(binding);
      if (lhs != nullptr && rhs != nullptr) {
        return CompareHolds(compare_op_, *lhs, *rhs);
      }
      break;  // other operand shapes, or an unbound variable's error
    }
    case Kind::kAnd: {
      LAKEFED_ASSIGN_OR_RETURN(bool lhs, args_[0]->EvalBool(binding));
      if (!lhs) return false;
      return args_[1]->EvalBool(binding);
    }
    case Kind::kOr: {
      LAKEFED_ASSIGN_OR_RETURN(bool lhs, args_[0]->EvalBool(binding));
      if (lhs) return true;
      return args_[1]->EvalBool(binding);
    }
    case Kind::kNot: {
      LAKEFED_ASSIGN_OR_RETURN(bool v, args_[0]->EvalBool(binding));
      return !v;
    }
    default:
      break;
  }
  LAKEFED_ASSIGN_OR_RETURN(rdf::Term v, Eval(binding));
  return EffectiveBool(v);
}

std::string CompareOpToString(FilterExpr::CompareOp op) {
  switch (op) {
    case FilterExpr::CompareOp::kEq: return "=";
    case FilterExpr::CompareOp::kNe: return "!=";
    case FilterExpr::CompareOp::kLt: return "<";
    case FilterExpr::CompareOp::kLe: return "<=";
    case FilterExpr::CompareOp::kGt: return ">";
    case FilterExpr::CompareOp::kGe: return ">=";
  }
  return "?";
}

std::string FuncToString(FilterExpr::Func func) {
  switch (func) {
    case FilterExpr::Func::kRegex: return "REGEX";
    case FilterExpr::Func::kContains: return "CONTAINS";
    case FilterExpr::Func::kStrStarts: return "STRSTARTS";
    case FilterExpr::Func::kStrEnds: return "STRENDS";
    case FilterExpr::Func::kBound: return "BOUND";
    case FilterExpr::Func::kStr: return "STR";
    case FilterExpr::Func::kLang: return "LANG";
    case FilterExpr::Func::kDatatype: return "DATATYPE";
  }
  return "?";
}

std::string FilterExpr::ToString() const {
  switch (kind_) {
    case Kind::kVar:
      return "?" + var_;
    case Kind::kLiteral:
      return literal_.ToString();
    case Kind::kCompare:
      return "(" + args_[0]->ToString() + " " +
             CompareOpToString(compare_op_) + " " + args_[1]->ToString() +
             ")";
    case Kind::kAnd:
      return "(" + args_[0]->ToString() + " && " + args_[1]->ToString() + ")";
    case Kind::kOr:
      return "(" + args_[0]->ToString() + " || " + args_[1]->ToString() + ")";
    case Kind::kNot:
      return "!(" + args_[0]->ToString() + ")";
    case Kind::kFunction: {
      std::string out = FuncToString(func_) + "(";
      for (size_t i = 0; i < args_.size(); ++i) {
        if (i > 0) out += ", ";
        out += args_[i]->ToString();
      }
      return out + ")";
    }
  }
  return "?";
}

void FilterExpr::CollectVariables(std::vector<std::string>* out) const {
  if (kind_ == Kind::kVar) {
    out->push_back(var_);
    return;
  }
  for (const FilterExprPtr& arg : args_) arg->CollectVariables(out);
}

bool IsSimpleVarFilter(const FilterExpr& expr, std::string* var) {
  if (expr.kind() == FilterExpr::Kind::kCompare) {
    const FilterExpr& lhs = *expr.args()[0];
    const FilterExpr& rhs = *expr.args()[1];
    if (lhs.kind() == FilterExpr::Kind::kVar &&
        rhs.kind() == FilterExpr::Kind::kLiteral) {
      *var = lhs.var();
      return true;
    }
    if (rhs.kind() == FilterExpr::Kind::kVar &&
        lhs.kind() == FilterExpr::Kind::kLiteral) {
      *var = rhs.var();
      return true;
    }
    return false;
  }
  if (expr.kind() == FilterExpr::Kind::kFunction) {
    switch (expr.func()) {
      case FilterExpr::Func::kRegex:
      case FilterExpr::Func::kContains:
      case FilterExpr::Func::kStrStarts:
      case FilterExpr::Func::kStrEnds:
        break;
      default:
        return false;
    }
    if (expr.args().size() != 2) return false;
    const FilterExpr* target = expr.args()[0].get();
    // Allow STR(?v) around the variable.
    if (target->kind() == FilterExpr::Kind::kFunction &&
        target->func() == FilterExpr::Func::kStr &&
        target->args().size() == 1) {
      target = target->args()[0].get();
    }
    if (target->kind() != FilterExpr::Kind::kVar) return false;
    if (expr.args()[1]->kind() != FilterExpr::Kind::kLiteral) return false;
    *var = target->var();
    return true;
  }
  return false;
}

bool IsPushableToSql(const FilterExpr& expr, std::string* var) {
  if (!IsSimpleVarFilter(expr, var)) return false;
  if (expr.kind() != FilterExpr::Kind::kFunction) return true;  // comparison
  if (expr.func() != FilterExpr::Func::kRegex) return true;  // LIKE-able
  // REGEX: only patterns that reduce to LIKE — optional ^/$ anchors around
  // a metacharacter-free core.
  std::string_view core = expr.args()[1]->literal().value();
  if (StartsWith(core, "^")) core.remove_prefix(1);
  if (EndsWith(core, "$")) core.remove_suffix(1);
  return core.find_first_of(".*+?[](){}|\\^$") == std::string_view::npos;
}

std::vector<FilterExprPtr> SplitFilterConjuncts(const FilterExprPtr& expr) {
  std::vector<FilterExprPtr> out;
  if (expr == nullptr) return out;
  if (expr->kind() == FilterExpr::Kind::kAnd) {
    for (const FilterExprPtr& arg : expr->args()) {
      auto parts = SplitFilterConjuncts(arg);
      out.insert(out.end(), parts.begin(), parts.end());
    }
    return out;
  }
  out.push_back(expr);
  return out;
}

}  // namespace lakefed::sparql
