#include "fed/plan.h"

namespace lakefed::fed {
namespace {

void ExplainInto(const FedPlanNode& node, std::string* out, int indent) {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  out->append("-> ");
  out->append(node.Describe());
  if (node.estimated_rows >= 0.0) {
    out->append(" [est≈" +
                std::to_string(static_cast<long long>(node.estimated_rows)) +
                " rows]");
  }
  out->push_back('\n');
  for (const FedPlanPtr& child : node.children) {
    ExplainInto(*child, out, indent + 1);
  }
}

}  // namespace

std::string FedPlanNode::Describe() const {
  switch (kind) {
    case Kind::kService:
      return subquery.ToString();
    case Kind::kJoin: {
      std::string out = "SymmetricHashJoin on";
      for (const std::string& v : join_vars) out += " ?" + v;
      if (join_vars.empty()) out += " (cross product)";
      return out;
    }
    case Kind::kLeftJoin: {
      std::string out = "LeftJoin (OPTIONAL) on";
      for (const std::string& v : join_vars) out += " ?" + v;
      if (join_vars.empty()) out += " (unconditional)";
      return out;
    }
    case Kind::kDependentJoin: {
      std::string out = "DependentJoin on";
      for (const std::string& v : join_vars) out += " ?" + v;
      out += " into " + subquery.ToString();
      return out;
    }
    case Kind::kUnion: {
      // Every branch plan of a query-level UNION ends in its projection;
      // a molecule union's children are scans.
      const bool branches = children.front()->kind == Kind::kProject;
      return "Union (" + std::to_string(children.size()) +
             (branches ? " branches)" : " sources)");
    }
    case Kind::kFilter: {
      std::string out = "EngineFilter";
      for (const sparql::FilterExprPtr& f : filters) {
        out += " " + f->ToString();
      }
      return out;
    }
    case Kind::kProject: {
      std::string out = "Project";
      for (const std::string& v : projection) out += " ?" + v;
      return out;
    }
    case Kind::kOrderBy: {
      std::string out = "OrderBy";
      for (const sparql::OrderCondition& c : order_by) {
        out += c.ascending ? " ?" + c.variable : " DESC(?" + c.variable + ")";
      }
      return out;
    }
    case Kind::kDistinct:
      return "Distinct";
    case Kind::kLimit:
      return "Limit " + std::to_string(limit);
    case Kind::kAggregate: {
      std::string out = "EngineAggregate";
      if (!group_by.empty()) out += " GROUP BY";
      for (const std::string& v : group_by) out += " ?" + v;
      for (const sparql::SelectAggregate& agg : aggregates) {
        out += " " + sparql::AggregateFuncToString(agg.func) + "(" +
               (agg.distinct ? "DISTINCT " : "") +
               (agg.var.empty() ? "*" : "?" + agg.var) + ") AS ?" +
               agg.alias;
      }
      return out;
    }
  }
  return "?";
}

std::string FedPlanNode::Explain() const {
  std::string out;
  ExplainInto(*this, &out, 0);
  return out;
}

std::string FederatedPlan::Explain() const {
  std::string out;
  if (!decisions.empty()) {
    out += "Heuristic decisions:\n";
    for (const std::string& d : decisions) out += "  * " + d + "\n";
  }
  out += root->Explain();
  return out;
}

FedPlanPtr MakeServiceNode(SubQuery subquery) {
  auto node = std::make_unique<FedPlanNode>();
  node->kind = FedPlanNode::Kind::kService;
  node->subquery = std::move(subquery);
  return node;
}

FedPlanPtr MakeJoinNode(FedPlanPtr left, FedPlanPtr right,
                        std::vector<std::string> join_vars) {
  auto node = std::make_unique<FedPlanNode>();
  node->kind = FedPlanNode::Kind::kJoin;
  node->children.push_back(std::move(left));
  node->children.push_back(std::move(right));
  node->join_vars = std::move(join_vars);
  return node;
}

FedPlanPtr MakeLeftJoinNode(FedPlanPtr left, FedPlanPtr right,
                            std::vector<std::string> join_vars) {
  auto node = std::make_unique<FedPlanNode>();
  node->kind = FedPlanNode::Kind::kLeftJoin;
  node->children.push_back(std::move(left));
  node->children.push_back(std::move(right));
  node->join_vars = std::move(join_vars);
  return node;
}

FedPlanPtr MakeOrderByNode(FedPlanPtr child,
                           std::vector<sparql::OrderCondition> order_by) {
  auto node = std::make_unique<FedPlanNode>();
  node->kind = FedPlanNode::Kind::kOrderBy;
  node->children.push_back(std::move(child));
  node->order_by = std::move(order_by);
  return node;
}

FedPlanPtr MakeDependentJoinNode(FedPlanPtr left, SubQuery right,
                                 std::vector<std::string> join_vars) {
  auto node = std::make_unique<FedPlanNode>();
  node->kind = FedPlanNode::Kind::kDependentJoin;
  node->children.push_back(std::move(left));
  node->subquery = std::move(right);
  node->join_vars = std::move(join_vars);
  return node;
}

FedPlanPtr MakeUnionNode(std::vector<FedPlanPtr> children) {
  auto node = std::make_unique<FedPlanNode>();
  node->kind = FedPlanNode::Kind::kUnion;
  node->children = std::move(children);
  return node;
}

FedPlanPtr MakeFilterNode(FedPlanPtr child,
                          std::vector<sparql::FilterExprPtr> filters) {
  auto node = std::make_unique<FedPlanNode>();
  node->kind = FedPlanNode::Kind::kFilter;
  node->children.push_back(std::move(child));
  node->filters = std::move(filters);
  return node;
}

FedPlanPtr MakeProjectNode(FedPlanPtr child,
                           std::vector<std::string> projection) {
  auto node = std::make_unique<FedPlanNode>();
  node->kind = FedPlanNode::Kind::kProject;
  node->children.push_back(std::move(child));
  node->projection = std::move(projection);
  return node;
}

FedPlanPtr MakeDistinctNode(FedPlanPtr child) {
  auto node = std::make_unique<FedPlanNode>();
  node->kind = FedPlanNode::Kind::kDistinct;
  node->children.push_back(std::move(child));
  return node;
}

FedPlanPtr MakeLimitNode(FedPlanPtr child, int64_t limit) {
  auto node = std::make_unique<FedPlanNode>();
  node->kind = FedPlanNode::Kind::kLimit;
  node->children.push_back(std::move(child));
  node->limit = limit;
  return node;
}

FedPlanPtr MakeAggregateNode(FedPlanPtr child,
                             std::vector<std::string> group_by,
                             std::vector<sparql::SelectAggregate> aggregates) {
  auto node = std::make_unique<FedPlanNode>();
  node->kind = FedPlanNode::Kind::kAggregate;
  node->children.push_back(std::move(child));
  node->group_by = std::move(group_by);
  node->aggregates = std::move(aggregates);
  return node;
}

}  // namespace lakefed::fed
