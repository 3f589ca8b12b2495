// Planner: turns a parsed SelectStatement into a PhysOp tree.
//
// Decisions made here (the ones the paper's heuristics depend on):
//  * access path per table: B+-tree equality/range/IN scan when a sargable
//    predicate references an indexed column, sequential scan otherwise;
//  * join order: greedy smallest-estimated-cardinality-first over the join
//    graph;
//  * join algorithm: index nested-loop join when the inner table has an index
//    on its join column, hash join otherwise;
//  * DISTINCT: no Distinct operator when every table's NOT NULL primary key
//    is in the output (SELECT *, or a bare column reference), since those
//    keys already make every row distinct.

#ifndef LAKEFED_REL_PLANNER_H_
#define LAKEFED_REL_PLANNER_H_

#include <string>

#include "common/status.h"
#include "rel/catalog.h"
#include "rel/executor.h"
#include "rel/sql_ast.h"

namespace lakefed::rel {

struct PlannerOptions {
  // When false, secondary B+-trees are ignored for access paths and join
  // algorithms (primary keys stay usable). Benches use this to ablate the
  // physical design inside the RDB itself.
  bool enable_secondary_indexes = true;
  // When false, joins never use index nested loops.
  bool enable_index_joins = true;
  // When false, sargable predicates are never turned into index scans.
  bool enable_index_scans = true;
};

// Plans `stmt` against `catalog`. The returned operator tree borrows the
// catalog's tables, which must outlive it.
Result<PhysOpPtr> PlanSelect(const SelectStatement& stmt,
                             const Catalog& catalog,
                             const PlannerOptions& options);

}  // namespace lakefed::rel

#endif  // LAKEFED_REL_PLANNER_H_
