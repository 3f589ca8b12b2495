// SPARQL FILTER expressions: a small algebra over solution bindings.
// Deliberately a single tagged node type (not a class hierarchy) so that the
// query decomposer and the SQL translator can pattern-match expressions
// when deciding filter placement (Heuristic 2).

#ifndef LAKEFED_SPARQL_FILTER_EXPR_H_
#define LAKEFED_SPARQL_FILTER_EXPR_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "rdf/bgp.h"
#include "rdf/term.h"

namespace lakefed::sparql {

class FilterExpr;
using FilterExprPtr = std::shared_ptr<FilterExpr>;

class FilterExpr {
 public:
  enum class Kind { kVar, kLiteral, kCompare, kAnd, kOr, kNot, kFunction };
  enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
  enum class Func {
    kRegex,      // REGEX(expr, "pattern")  (substring regex, case-sensitive)
    kContains,   // CONTAINS(expr, "s")
    kStrStarts,  // STRSTARTS(expr, "s")
    kStrEnds,    // STRENDS(expr, "s")
    kBound,      // BOUND(?v)
    kStr,        // STR(expr)
    kLang,       // LANG(expr)
    kDatatype,   // DATATYPE(expr)
  };

  // -- factories --
  static FilterExprPtr Var(std::string name);
  static FilterExprPtr Literal(rdf::Term term);
  static FilterExprPtr Compare(CompareOp op, FilterExprPtr lhs,
                               FilterExprPtr rhs);
  static FilterExprPtr And(FilterExprPtr lhs, FilterExprPtr rhs);
  static FilterExprPtr Or(FilterExprPtr lhs, FilterExprPtr rhs);
  static FilterExprPtr Not(FilterExprPtr operand);
  static FilterExprPtr Function(Func func, std::vector<FilterExprPtr> args);

  // Evaluates to a term; booleans come back as xsd:boolean literals.
  // Unbound variables yield an error status (=> filter rejects).
  Result<rdf::Term> Eval(const rdf::Binding& binding) const;

  // Effective boolean value of Eval: always EffectiveBool(Eval(binding)),
  // status included. Comparisons of variables and literals and the
  // connectives over them evaluate without building intermediate terms.
  Result<bool> EvalBool(const rdf::Binding& binding) const;

  // SPARQL-syntax rendering.
  std::string ToString() const;

  // All variables mentioned (for filter-to-SSQ association).
  void CollectVariables(std::vector<std::string>* out) const;

  // -- introspection (read-only) --
  Kind kind() const { return kind_; }
  CompareOp compare_op() const { return compare_op_; }
  Func func() const { return func_; }
  const std::string& var() const { return var_; }
  const rdf::Term& literal() const { return literal_; }
  const std::vector<FilterExprPtr>& args() const { return args_; }

 private:
  FilterExpr() = default;

  // The term a kVar/kLiteral operand denotes, borrowed from the binding or
  // the node; nullptr for other kinds and for an unbound variable.
  const rdf::Term* TermOperand(const rdf::Binding& binding) const;

  Kind kind_ = Kind::kLiteral;
  CompareOp compare_op_ = CompareOp::kEq;
  Func func_ = Func::kBound;
  std::string var_;
  rdf::Term literal_;
  std::vector<FilterExprPtr> args_;  // children
};

std::string CompareOpToString(FilterExpr::CompareOp op);
std::string FuncToString(FilterExpr::Func func);

// True if `expr` is a conjunction-free simple predicate of the form
// <?var cmp literal> or <string-function(?var, "s")>, extracting the variable
// it constrains. These are the filters Heuristic 2 can push into SQL.
bool IsSimpleVarFilter(const FilterExpr& expr, std::string* var);

// Splits nested ANDs into conjuncts.
std::vector<FilterExprPtr> SplitFilterConjuncts(const FilterExprPtr& expr);

// SPARQL effective boolean value of a term: IRIs are true, xsd:boolean
// literals by their lexical form, numerics when non-zero, other literals
// when non-empty.
bool EffectiveBool(const rdf::Term& term);

// Numeric view of a term: the lexical form parsed with strtod when the
// datatype is numeric or the literal is untyped; nullopt for other terms
// and for lexical forms strtod does not consume whole.
std::optional<double> TryNumericTerm(const rdf::Term& term);

// SPARQL value ordering used by comparisons and ORDER BY: numeric literals
// compare numerically, everything else by lexical form. Returns <0, 0, >0.
int CompareTermsSparql(const rdf::Term& a, const rdf::Term& b);

// True if the SQL wrapper can translate `expr` into a WHERE condition:
// a simple var filter whose operation maps onto SQL comparisons or LIKE
// (REGEX only for anchored, metacharacter-free patterns). Extracts the
// constrained variable.
bool IsPushableToSql(const FilterExpr& expr, std::string* var);

}  // namespace lakefed::sparql

#endif  // LAKEFED_SPARQL_FILTER_EXPR_H_
