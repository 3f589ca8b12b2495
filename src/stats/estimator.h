// CardinalityEstimator: predicts result sizes of star-shaped sub-queries,
// filter selectivities and pairwise join cardinalities from the StatsCatalog.
//
// The estimator is deliberately fed-neutral: it consumes a PatternSpec (the
// shape of one SSQ against one source) rather than fed::SubQuery, so the
// stats layer stays below the federated planner in the dependency order.
// Estimation follows the classic System-R assumptions: uniformity within
// histogram buckets, independence between predicates, and containment of
// value sets for joins (|T ⋈ U| = |T|·|U| / max(V(T,a), V(U,a))).

#ifndef LAKEFED_STATS_ESTIMATOR_H_
#define LAKEFED_STATS_ESTIMATOR_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "mapping/rdf_mt.h"
#include "rdf/term.h"
#include "sparql/filter_expr.h"
#include "stats/stats_catalog.h"

namespace lakefed::stats {

// One triple pattern of the star: a constant predicate and, when the object
// position is a constant too, that constant.
struct PatternPredicate {
  std::string predicate;            // predicate IRI
  std::optional<rdf::Term> object;  // set when the object is a constant
};

// The estimator's view of one SSQ routed to one source.
struct PatternSpec {
  std::string source_id;
  std::string class_iri;  // empty when the SSQ carries no rdf:type constant
  bool subject_is_constant = false;
  std::string subject_var;  // empty when subject_is_constant
  std::vector<PatternPredicate> predicates;  // constant non-rdf:type preds
  // Filters the source evaluates: they shrink what the wrapper ships.
  std::vector<sparql::FilterExprPtr> source_filters;
  // Object variable -> the predicate IRI binding it (for filter and join
  // selectivity lookups).
  std::map<std::string, std::string> var_predicates;
};

class CardinalityEstimator {
 public:
  // Fallback base cardinality when neither statistics nor molecule counts
  // cover a spec (mirrors the planner's heuristic default).
  static constexpr double kDefaultCardinality = 1000.0;

  // Neither pointer is owned; `molecules` (optional) supplies fallback
  // class cardinalities for sources the analyze pass has not covered.
  explicit CardinalityEstimator(const StatsCatalog* stats,
                                const mapping::RdfMtCatalog* molecules =
                                    nullptr);

  // Rows the wrapper ships to the engine: entity count, narrowed by object
  // constants and source-placed filters, widened by multi-valued predicates.
  double EstimateShippedRows(const PatternSpec& spec) const;

  // Selectivity of one filter expression over the spec's rows, in [0, 1].
  double EstimateFilterSelectivity(const PatternSpec& spec,
                                   const sparql::FilterExpr& filter) const;

  // Estimated distinct values of `var` among `rows` result rows (caps the
  // join-attribute NDV used by EstimateJoinRows).
  double EstimateDistinct(const PatternSpec& spec, const std::string& var,
                          double rows) const;

  // Equi-join size under the containment assumption.
  static double EstimateJoinRows(double left_rows, double right_rows,
                                 double left_distinct, double right_distinct);

 private:
  // Resolves the ClassStats for a spec; when the SSQ names no class, the
  // first class of the source covering every constant predicate is used.
  const ClassStats* ClassFor(const PatternSpec& spec) const;

  const StatsCatalog* stats_;
  const mapping::RdfMtCatalog* molecules_;
};

}  // namespace lakefed::stats

#endif  // LAKEFED_STATS_ESTIMATOR_H_
