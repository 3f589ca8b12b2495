// Federated query execution plans (QEPs): trees whose leaves are per-source
// sub-queries and whose inner nodes are the mediator's operators.

#ifndef LAKEFED_FED_PLAN_H_
#define LAKEFED_FED_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "fed/subquery.h"
#include "sparql/ast.h"

namespace lakefed::fed {

struct FedPlanNode;
using FedPlanPtr = std::unique_ptr<FedPlanNode>;

struct FedPlanNode {
  enum class Kind {
    kService,        // leaf: execute `subquery` at its source
    kJoin,           // ANAPSID-style symmetric hash join on `join_vars`
    kLeftJoin,       // OPTIONAL: left outer join on `join_vars`
    kDependentJoin,  // bind join: left drives instantiated right service
    kUnion,          // multi-source molecule union, or the query's UNION
                     // branches (each child then ends in a kProject)
    kFilter,         // engine-level FILTER evaluation
    kProject,
    kOrderBy,        // blocking sort on `order_by`
    kDistinct,
    kLimit,
    kAggregate,      // blocking GROUP BY + aggregates at the mediator
  };

  Kind kind = Kind::kService;
  std::vector<FedPlanPtr> children;

  SubQuery subquery;                    // kService / kDependentJoin (right)
  std::vector<std::string> join_vars;   // kJoin / kLeftJoin / kDependentJoin
  std::vector<sparql::FilterExprPtr> filters;  // kFilter
  std::vector<std::string> projection;  // kProject
  std::vector<sparql::OrderCondition> order_by;  // kOrderBy
  int64_t limit = 0;                    // kLimit
  std::vector<std::string> group_by;    // kAggregate
  std::vector<sparql::SelectAggregate> aggregates;  // kAggregate

  // Cost-model annotations (set only when PlanOptions::use_cost_model is
  // on). estimated_rows < 0 means "no estimate"; stats_key identifies the
  // sub-query for the runtime cardinality feedback loop (kService only).
  double estimated_rows = -1.0;
  std::string stats_key;

  // Alternate sources serving the same molecule(s) as this leaf — its union
  // siblings, filled by the planner for kService nodes. When the leaf's own
  // source is unrecoverable (retries exhausted) the executor fails over to
  // the first healthy alternate. Deliberately absent from Describe/Explain
  // so plan text is unchanged by the fault-tolerance layer.
  std::vector<std::string> failover_sources;

  std::string Describe() const;
  std::string Explain() const;  // indented subtree
};

struct FederatedPlan {
  FedPlanPtr root;
  std::vector<std::string> variables;  // final projection
  // Log of heuristic decisions taken during planning (for EXPLAIN output).
  std::vector<std::string> decisions;

  std::string Explain() const;
};

FedPlanPtr MakeServiceNode(SubQuery subquery);
FedPlanPtr MakeJoinNode(FedPlanPtr left, FedPlanPtr right,
                        std::vector<std::string> join_vars);
FedPlanPtr MakeLeftJoinNode(FedPlanPtr left, FedPlanPtr right,
                            std::vector<std::string> join_vars);
FedPlanPtr MakeOrderByNode(FedPlanPtr child,
                           std::vector<sparql::OrderCondition> order_by);
FedPlanPtr MakeDependentJoinNode(FedPlanPtr left, SubQuery right,
                                 std::vector<std::string> join_vars);
FedPlanPtr MakeUnionNode(std::vector<FedPlanPtr> children);
FedPlanPtr MakeFilterNode(FedPlanPtr child,
                          std::vector<sparql::FilterExprPtr> filters);
FedPlanPtr MakeProjectNode(FedPlanPtr child,
                           std::vector<std::string> projection);
FedPlanPtr MakeDistinctNode(FedPlanPtr child);
FedPlanPtr MakeLimitNode(FedPlanPtr child, int64_t limit);
FedPlanPtr MakeAggregateNode(FedPlanPtr child,
                             std::vector<std::string> group_by,
                             std::vector<sparql::SelectAggregate> aggregates);

}  // namespace lakefed::fed

#endif  // LAKEFED_FED_PLAN_H_
