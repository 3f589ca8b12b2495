#include "stats/estimator.h"

#include <algorithm>
#include <cmath>

#include "stats/analyze.h"

namespace lakefed::stats {
namespace {

// Default selectivities when statistics cannot answer (System-R style).
constexpr double kUnknownSelectivity = 0.33;
constexpr double kStringFuncSelectivity = 0.1;
constexpr double kEqualityFallback = 0.1;
// Mirrors the heuristic planner's constants for specs without statistics.
constexpr double kObjectConstantSelectivity = 0.1;
constexpr double kSourceFilterSelectivity = 0.3;

}  // namespace

CardinalityEstimator::CardinalityEstimator(
    const StatsCatalog* stats, const mapping::RdfMtCatalog* molecules)
    : stats_(stats), molecules_(molecules) {}

const ClassStats* CardinalityEstimator::ClassFor(
    const PatternSpec& spec) const {
  if (stats_ == nullptr) return nullptr;
  if (!spec.class_iri.empty()) {
    return stats_->Find(spec.source_id, spec.class_iri);
  }
  // No rdf:type constant: the first class of the source that carries every
  // constant predicate of the star (deterministic: classes are map-ordered).
  const SourceStats* source = stats_->FindSource(spec.source_id);
  if (source == nullptr || spec.predicates.empty()) return nullptr;
  for (const auto& [iri, cs] : source->classes) {
    bool covers = true;
    for (const PatternPredicate& p : spec.predicates) {
      if (cs.Find(p.predicate) == nullptr) {
        covers = false;
        break;
      }
    }
    if (covers) return &cs;
  }
  return nullptr;
}

double CardinalityEstimator::EstimateShippedRows(
    const PatternSpec& spec) const {
  const ClassStats* cs = ClassFor(spec);
  if (cs == nullptr) {
    // No statistics: fall back to molecule cardinality / fixed defaults so
    // the cost model still produces an ordering.
    double rows = kDefaultCardinality;
    if (molecules_ != nullptr && !spec.class_iri.empty()) {
      const mapping::RdfMt* mt = molecules_->Find(spec.class_iri);
      if (mt != nullptr && mt->cardinality > 0) {
        rows = static_cast<double>(mt->cardinality);
      }
    }
    for (const PatternPredicate& p : spec.predicates) {
      if (p.object.has_value()) rows *= kObjectConstantSelectivity;
    }
    if (spec.subject_is_constant) rows = std::min(rows, 1.0);
    for (const auto& f : spec.source_filters) {
      rows *= f != nullptr ? kSourceFilterSelectivity : 1.0;
    }
    return rows;
  }
  if (cs->entity_count == 0) return 0.0;
  const double entities = static_cast<double>(cs->entity_count);
  double rows = entities;
  for (const PatternPredicate& p : spec.predicates) {
    const AttributeStats* attr = cs->Find(p.predicate);
    if (attr == nullptr) continue;  // molecule claims it; stats are stale
    // Presence factor: < 1 for nullable attributes, > 1 for multi-valued
    // ones (each subject contributes SubjectMultiplicity bindings).
    rows *= static_cast<double>(attr->triple_count) / entities;
    if (p.object.has_value()) {
      rows *= attr->histogram.FractionEqual(ValueFromObjectTerm(*p.object),
                                            attr->distinct_objects);
    }
  }
  if (spec.subject_is_constant) rows /= entities;
  for (const auto& f : spec.source_filters) {
    if (f != nullptr) rows *= EstimateFilterSelectivity(spec, *f);
  }
  return rows;
}

double CardinalityEstimator::EstimateFilterSelectivity(
    const PatternSpec& spec, const sparql::FilterExpr& filter) const {
  using Kind = sparql::FilterExpr::Kind;
  using Op = sparql::FilterExpr::CompareOp;
  using Func = sparql::FilterExpr::Func;
  switch (filter.kind()) {
    case Kind::kAnd: {
      double s = 1.0;
      for (const auto& arg : filter.args()) {
        s *= EstimateFilterSelectivity(spec, *arg);
      }
      return s;
    }
    case Kind::kOr: {
      double s = 0.0;
      for (const auto& arg : filter.args()) {
        const double a = EstimateFilterSelectivity(spec, *arg);
        s = s + a - s * a;  // inclusion-exclusion under independence
      }
      return s;
    }
    case Kind::kNot:
      return 1.0 - EstimateFilterSelectivity(spec, *filter.args().front());
    case Kind::kFunction:
      switch (filter.func()) {
        case Func::kBound:
          return 1.0;  // SSQ bindings always bind their variables
        case Func::kRegex:
        case Func::kContains:
        case Func::kStrStarts:
        case Func::kStrEnds:
          return kStringFuncSelectivity;
        default:
          return kUnknownSelectivity;
      }
    case Kind::kCompare:
      break;  // handled below
    default:
      return kUnknownSelectivity;
  }

  // ?var <op> literal (either operand order).
  const auto& args = filter.args();
  if (args.size() != 2) return kUnknownSelectivity;
  const sparql::FilterExpr* var_side = args[0].get();
  const sparql::FilterExpr* lit_side = args[1].get();
  Op op = filter.compare_op();
  if (var_side->kind() == Kind::kLiteral && lit_side->kind() == Kind::kVar) {
    std::swap(var_side, lit_side);
    switch (op) {  // flip the comparison
      case Op::kLt: op = Op::kGt; break;
      case Op::kLe: op = Op::kGe; break;
      case Op::kGt: op = Op::kLt; break;
      case Op::kGe: op = Op::kLe; break;
      default: break;
    }
  }
  if (var_side->kind() != Kind::kVar || lit_side->kind() != Kind::kLiteral) {
    return kUnknownSelectivity;
  }

  const ClassStats* cs = ClassFor(spec);
  const std::string& var = var_side->var();
  if (!spec.subject_var.empty() && var == spec.subject_var) {
    // Equality on the subject pins one entity; ranges are opaque.
    if (op == Op::kEq && cs != nullptr && cs->entity_count > 0) {
      return 1.0 / static_cast<double>(cs->entity_count);
    }
    return kUnknownSelectivity;
  }
  auto pred_it = spec.var_predicates.find(var);
  if (pred_it == spec.var_predicates.end() || cs == nullptr) {
    return op == Op::kEq ? kEqualityFallback : kUnknownSelectivity;
  }
  const AttributeStats* attr = cs->Find(pred_it->second);
  if (attr == nullptr) {
    return op == Op::kEq ? kEqualityFallback : kUnknownSelectivity;
  }
  const rel::Value v = ValueFromObjectTerm(lit_side->literal());
  const Histogram& h = attr->histogram;
  switch (op) {
    case Op::kEq:
      return h.FractionEqual(v, attr->distinct_objects);
    case Op::kNe:
      return 1.0 - h.FractionEqual(v, attr->distinct_objects);
    case Op::kLt:
      return h.FractionBelow(v, /*inclusive=*/false);
    case Op::kLe:
      return h.FractionBelow(v, /*inclusive=*/true);
    case Op::kGt:
      return 1.0 - h.FractionBelow(v, /*inclusive=*/true);
    case Op::kGe:
      return 1.0 - h.FractionBelow(v, /*inclusive=*/false);
  }
  return kUnknownSelectivity;
}

double CardinalityEstimator::EstimateDistinct(const PatternSpec& spec,
                                              const std::string& var,
                                              double rows) const {
  if (rows <= 0.0) return 0.0;
  const ClassStats* cs = ClassFor(spec);
  if (cs == nullptr) return rows;
  if (!spec.subject_var.empty() && var == spec.subject_var) {
    return std::min(rows, static_cast<double>(cs->entity_count));
  }
  auto pred_it = spec.var_predicates.find(var);
  if (pred_it != spec.var_predicates.end()) {
    const AttributeStats* attr = cs->Find(pred_it->second);
    if (attr != nullptr && attr->distinct_objects > 0) {
      return std::min(rows, static_cast<double>(attr->distinct_objects));
    }
  }
  return rows;
}

double CardinalityEstimator::EstimateJoinRows(double left_rows,
                                              double right_rows,
                                              double left_distinct,
                                              double right_distinct) {
  if (left_rows <= 0.0 || right_rows <= 0.0) return 0.0;
  const double dv = std::max({left_distinct, right_distinct, 1.0});
  return left_rows * right_rows / dv;
}

}  // namespace lakefed::stats
