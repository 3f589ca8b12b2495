// Solution-level aggregation (SPARQL GROUP BY / COUNT / SUM / MIN / MAX /
// AVG) and ordering helpers, shared by the reference evaluator and the
// federated mediator (which always aggregates at the engine, above the
// sources).

#ifndef LAKEFED_SPARQL_AGGREGATE_H_
#define LAKEFED_SPARQL_AGGREGATE_H_

#include <vector>

#include "common/status.h"
#include "rdf/bgp.h"
#include "sparql/ast.h"

namespace lakefed::sparql {

// Groups `solutions` by the `group_by` variables and computes one output
// binding per group: the grouping keys plus one value per aggregate (bound
// to its alias). Per SPARQL semantics: unbound inputs are skipped, SUM/AVG
// over non-numeric values leave the alias unbound, COUNT of an empty
// global group is "0", and an empty input without GROUP BY still produces
// one row.
std::vector<rdf::Binding> AggregateSolutions(
    const std::vector<rdf::Binding>& solutions,
    const std::vector<std::string>& group_by,
    const std::vector<SelectAggregate>& aggregates);

// Stable-sorts bindings by the order conditions (SPARQL value ordering;
// unbound sorts first).
void SortBindings(std::vector<rdf::Binding>* rows,
                  const std::vector<OrderCondition>& order_by);

}  // namespace lakefed::sparql

#endif  // LAKEFED_SPARQL_AGGREGATE_H_
