#include "rel/planner.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/string_util.h"

namespace lakefed::rel {
namespace {

// Splits a qualified column name "alias.column" into its parts. Returns
// false when the name has no qualifier.
bool SplitQualified(const std::string& name, std::string* alias,
                    std::string* column) {
  size_t dot = name.find('.');
  if (dot == std::string::npos) return false;
  *alias = name.substr(0, dot);
  *column = name.substr(dot + 1);
  return true;
}

struct TableBinding {
  std::string alias;
  const Table* table;
};

// Resolves column names against the set of table bindings: "a.c" must match
// binding a, bare "c" must match exactly one binding.
class NameResolver {
 public:
  explicit NameResolver(const std::vector<TableBinding>& bindings)
      : bindings_(bindings) {}

  Result<std::string> Qualify(const std::string& name) const {
    std::string alias, column;
    if (SplitQualified(name, &alias, &column)) {
      for (const TableBinding& b : bindings_) {
        if (b.alias == alias) {
          if (!b.table->schema().FindColumn(column)) {
            return Status::NotFound("column '" + column + "' not in table '" +
                                    b.table->name() + "' (alias " + alias +
                                    ")");
          }
          return name;
        }
      }
      return Status::NotFound("unknown table alias '" + alias + "'");
    }
    std::string qualified;
    int matches = 0;
    for (const TableBinding& b : bindings_) {
      if (b.table->schema().FindColumn(name)) {
        ++matches;
        qualified = b.alias + "." + name;
      }
    }
    if (matches == 0) return Status::NotFound("unknown column '" + name + "'");
    if (matches > 1) {
      return Status::InvalidArgument("ambiguous column '" + name + "'");
    }
    return qualified;
  }

  // Rewrites every ColumnRef in `expr` to its qualified form.
  Result<ExprPtr> QualifyExpr(const ExprPtr& expr) const {
    switch (expr->kind()) {
      case Expr::Kind::kColumnRef: {
        const auto* ref = static_cast<const ColumnRefExpr*>(expr.get());
        LAKEFED_ASSIGN_OR_RETURN(std::string name, Qualify(ref->name()));
        return MakeColumn(std::move(name));
      }
      case Expr::Kind::kLiteral:
        return expr;
      case Expr::Kind::kBinary: {
        const auto* bin = static_cast<const BinaryExpr*>(expr.get());
        LAKEFED_ASSIGN_OR_RETURN(ExprPtr lhs, QualifyExpr(bin->lhs()));
        LAKEFED_ASSIGN_OR_RETURN(ExprPtr rhs, QualifyExpr(bin->rhs()));
        return MakeBinary(bin->op(), std::move(lhs), std::move(rhs));
      }
      case Expr::Kind::kNot: {
        const auto* inner = static_cast<const NotExpr*>(expr.get());
        LAKEFED_ASSIGN_OR_RETURN(ExprPtr operand,
                                 QualifyExpr(inner->operand()));
        return ExprPtr(std::make_shared<NotExpr>(std::move(operand)));
      }
      case Expr::Kind::kLike: {
        const auto* like = static_cast<const LikeExpr*>(expr.get());
        LAKEFED_ASSIGN_OR_RETURN(ExprPtr operand,
                                 QualifyExpr(like->operand()));
        return ExprPtr(std::make_shared<LikeExpr>(
            std::move(operand), like->pattern(), like->negated()));
      }
      case Expr::Kind::kIn: {
        const auto* in = static_cast<const InExpr*>(expr.get());
        LAKEFED_ASSIGN_OR_RETURN(ExprPtr operand, QualifyExpr(in->operand()));
        return ExprPtr(std::make_shared<InExpr>(std::move(operand),
                                                in->values(), in->negated()));
      }
      case Expr::Kind::kIsNull: {
        const auto* isnull = static_cast<const IsNullExpr*>(expr.get());
        LAKEFED_ASSIGN_OR_RETURN(ExprPtr operand,
                                 QualifyExpr(isnull->operand()));
        return ExprPtr(std::make_shared<IsNullExpr>(std::move(operand),
                                                    isnull->negated()));
      }
    }
    return Status::Internal("unhandled expression kind");
  }

 private:
  const std::vector<TableBinding>& bindings_;
};

struct JoinEdge {
  std::string left_alias, left_column;    // qualified: left_alias.left_column
  std::string right_alias, right_column;
};

// Selectivity guesses for non-equality predicates.
constexpr double kRangeSelectivity = 0.33;
constexpr double kLikeSelectivity = 0.25;
constexpr double kDefaultSelectivity = 0.5;

double EstimateConjunctSelectivity(const Expr& conjunct, const Table& table) {
  std::string column;
  BinaryOp op;
  Value literal;
  if (MatchColumnLiteral(conjunct, &column, &op, &literal)) {
    std::string alias, col;
    if (!SplitQualified(column, &alias, &col)) col = column;
    if (op == BinaryOp::kEq) {
      return table.EstimateEqualitySelectivity(col, literal);
    }
    if (op == BinaryOp::kNe) return 1.0 - kDefaultSelectivity;
    return kRangeSelectivity;
  }
  if (conjunct.kind() == Expr::Kind::kLike) return kLikeSelectivity;
  if (conjunct.kind() == Expr::Kind::kIn) {
    const auto& in = static_cast<const InExpr&>(conjunct);
    std::vector<std::string> cols;
    in.CollectColumns(&cols);
    if (cols.size() == 1) {
      std::string alias, col;
      if (!SplitQualified(cols[0], &alias, &col)) col = cols[0];
      double sel = 0;
      for (const Value& v : in.values()) {
        sel += table.EstimateEqualitySelectivity(col, v);
      }
      return std::min(sel, 1.0);
    }
    return kDefaultSelectivity;
  }
  return kDefaultSelectivity;
}

// Access-path decision for one base table.
struct AccessPath {
  std::optional<IndexCondition> index_condition;
  std::vector<ExprPtr> residual;  // applied by a FilterOp above the scan
  double estimated_rows = 0;
};

// True if the planner may use this index (secondary indexes can be disabled).
bool IndexUsable(const Table& table, const std::string& column,
                 const PlannerOptions& options) {
  if (!table.HasIndexOn(column)) return false;
  if (options.enable_secondary_indexes) return true;
  return table.primary_key().has_value() && *table.primary_key() == column;
}

AccessPath ChooseAccessPath(const Table& table,
                            const std::vector<ExprPtr>& conjuncts,
                            const PlannerOptions& options) {
  AccessPath path;
  double rows = static_cast<double>(table.num_rows());

  // Rank candidate index conditions; lower is better.
  // 0 = PK equality, 1 = secondary equality, 2 = IN, 3 = range.
  int best_rank = 100;
  size_t best_conjunct = conjuncts.size();
  IndexCondition best_condition;

  for (size_t i = 0; i < conjuncts.size(); ++i) {
    const Expr& c = *conjuncts[i];
    std::string qualified;
    BinaryOp op;
    Value literal;
    if (options.enable_index_scans &&
        MatchColumnLiteral(c, &qualified, &op, &literal)) {
      std::string alias, column;
      if (!SplitQualified(qualified, &alias, &column)) column = qualified;
      if (!IndexUsable(table, column, options)) continue;
      if (op == BinaryOp::kEq) {
        bool is_pk = table.primary_key().has_value() &&
                     *table.primary_key() == column;
        int rank = is_pk ? 0 : 1;
        if (rank < best_rank) {
          best_rank = rank;
          best_conjunct = i;
          best_condition = IndexCondition{column, {literal}, {}, {}};
        }
      } else if (op == BinaryOp::kLt || op == BinaryOp::kLe ||
                 op == BinaryOp::kGt || op == BinaryOp::kGe) {
        if (3 < best_rank) {
          best_rank = 3;
          best_conjunct = i;
          IndexCondition cond;
          cond.column = column;
          if (op == BinaryOp::kLt || op == BinaryOp::kLe) {
            cond.hi = {literal, op == BinaryOp::kLe};
          } else {
            cond.lo = {literal, op == BinaryOp::kGe};
          }
          best_condition = std::move(cond);
        }
      }
      continue;
    }
    if (options.enable_index_scans && c.kind() == Expr::Kind::kIn) {
      const auto& in = static_cast<const InExpr&>(c);
      if (in.negated()) continue;
      if (in.operand()->kind() != Expr::Kind::kColumnRef) continue;
      std::string qualified_name =
          static_cast<const ColumnRefExpr*>(in.operand().get())->name();
      std::string alias, column;
      if (!SplitQualified(qualified_name, &alias, &column)) {
        column = qualified_name;
      }
      if (!IndexUsable(table, column, options)) continue;
      if (2 < best_rank) {
        best_rank = 2;
        best_conjunct = i;
        best_condition = IndexCondition{column, in.values(), {}, {}};
      }
    }
  }

  for (size_t i = 0; i < conjuncts.size(); ++i) {
    rows *= EstimateConjunctSelectivity(*conjuncts[i], table);
    if (i == best_conjunct) continue;
    path.residual.push_back(conjuncts[i]);
  }
  if (best_conjunct < conjuncts.size()) {
    path.index_condition = std::move(best_condition);
  } else {
    path.residual = conjuncts;
  }
  path.estimated_rows = std::max(rows, 1.0);
  return path;
}

// Builds scan (+ filter) for one table.
PhysOpPtr BuildTableAccess(const Table& table, const std::string& alias,
                           const AccessPath& path) {
  PhysOpPtr op;
  if (path.index_condition.has_value()) {
    op = std::make_unique<IndexScanOp>(&table, alias, *path.index_condition);
  } else {
    op = std::make_unique<SeqScanOp>(&table, alias);
  }
  ExprPtr residual = MakeAndAll(path.residual);
  if (residual != nullptr) {
    op = std::make_unique<FilterOp>(std::move(op), std::move(residual));
  }
  return op;
}

double DistinctCount(const Table& table, const std::string& column) {
  auto idx = table.schema().FindColumn(column);
  if (!idx.has_value()) return 1.0;
  return std::max<double>(table.column_stats(*idx).num_distinct, 1.0);
}

// True when no output row can repeat: every bound table has a NOT NULL
// primary key that the output carries (SELECT *, or a bare column
// reference among the qualified `items`). Table::Insert keeps such keys
// unique and non-NULL under Value::Compare, the equality DistinctOp uses;
// an inner join of rows with distinct keys yields distinct tuples and
// filters only remove rows, so a DistinctOp would drop nothing.
bool KeysProveDistinct(const std::vector<TableBinding>& bindings,
                       bool select_all, const std::vector<SelectItem>& items) {
  std::set<std::string> projected;
  for (const SelectItem& item : items) {
    if (item.expr->kind() == Expr::Kind::kColumnRef) {
      const auto* ref = static_cast<const ColumnRefExpr*>(item.expr.get());
      projected.insert(ref->name());
    }
  }
  for (const TableBinding& b : bindings) {
    const std::optional<std::string>& pk = b.table->primary_key();
    if (!pk.has_value()) return false;
    std::optional<size_t> col = b.table->schema().FindColumn(*pk);
    if (!col.has_value() || b.table->schema().column(*col).nullable) {
      return false;
    }
    if (!select_all && projected.count(b.alias + "." + *pk) == 0) return false;
  }
  return true;
}

}  // namespace

Result<PhysOpPtr> PlanSelect(const SelectStatement& stmt,
                             const Catalog& catalog,
                             const PlannerOptions& options) {
  // 1. Bind table references.
  std::vector<TableBinding> bindings;
  std::set<std::string> seen_aliases;
  auto bind = [&](const TableRef& ref) -> Status {
    const Table* table = catalog.GetTable(ref.table);
    if (table == nullptr) return Status::NotFound("table '" + ref.table + "'");
    if (!seen_aliases.insert(ref.alias).second) {
      return Status::InvalidArgument("duplicate table alias '" + ref.alias +
                                     "'");
    }
    bindings.push_back({ref.alias, table});
    return Status::OK();
  };
  LAKEFED_RETURN_NOT_OK(bind(stmt.from));
  for (const JoinClause& join : stmt.joins) {
    LAKEFED_RETURN_NOT_OK(bind(join.table));
  }
  NameResolver resolver(bindings);

  // 2. Gather and qualify all conjuncts (WHERE + every JOIN ... ON).
  std::vector<ExprPtr> conjuncts;
  for (const ExprPtr& c : SplitConjuncts(stmt.where)) {
    LAKEFED_ASSIGN_OR_RETURN(ExprPtr q, resolver.QualifyExpr(c));
    conjuncts.push_back(std::move(q));
  }
  for (const JoinClause& join : stmt.joins) {
    for (const ExprPtr& c : SplitConjuncts(join.on)) {
      LAKEFED_ASSIGN_OR_RETURN(ExprPtr q, resolver.QualifyExpr(c));
      conjuncts.push_back(std::move(q));
    }
  }

  // 3. Classify conjuncts.
  std::map<std::string, std::vector<ExprPtr>> local_preds;  // alias -> preds
  std::vector<JoinEdge> edges;
  std::vector<ExprPtr> residual;
  auto alias_of = [&](const std::string& qualified) {
    std::string alias, column;
    SplitQualified(qualified, &alias, &column);
    return alias;
  };
  for (const ExprPtr& c : conjuncts) {
    std::string lhs, rhs;
    if (MatchColumnEquality(*c, &lhs, &rhs) && alias_of(lhs) != alias_of(rhs)) {
      JoinEdge edge;
      SplitQualified(lhs, &edge.left_alias, &edge.left_column);
      SplitQualified(rhs, &edge.right_alias, &edge.right_column);
      edges.push_back(std::move(edge));
      continue;
    }
    std::vector<std::string> cols;
    c->CollectColumns(&cols);
    std::set<std::string> aliases;
    for (const std::string& col : cols) aliases.insert(alias_of(col));
    if (aliases.size() == 1) {
      local_preds[*aliases.begin()].push_back(c);
    } else {
      residual.push_back(c);
    }
  }

  // 4. Access paths and estimates per table.
  std::map<std::string, AccessPath> paths;
  std::map<std::string, const Table*> table_of;
  for (const TableBinding& b : bindings) {
    table_of[b.alias] = b.table;
    paths[b.alias] = ChooseAccessPath(*b.table, local_preds[b.alias], options);
  }

  // 5. Greedy join order.
  std::vector<std::string> remaining;
  for (const TableBinding& b : bindings) remaining.push_back(b.alias);
  auto cheapest = [&](const std::vector<std::string>& candidates) {
    std::string best;
    double best_rows = 0;
    for (const std::string& alias : candidates) {
      double rows = paths[alias].estimated_rows;
      if (best.empty() || rows < best_rows) {
        best = alias;
        best_rows = rows;
      }
    }
    return best;
  };

  std::string first = cheapest(remaining);
  remaining.erase(std::find(remaining.begin(), remaining.end(), first));
  PhysOpPtr plan = BuildTableAccess(*table_of[first], first, paths[first]);
  double plan_rows = paths[first].estimated_rows;
  std::set<std::string> joined = {first};

  while (!remaining.empty()) {
    // Prefer candidates connected to the joined set by some edge.
    std::vector<std::string> connected;
    for (const std::string& alias : remaining) {
      for (const JoinEdge& e : edges) {
        bool connects =
            (joined.count(e.left_alias) > 0 && e.right_alias == alias) ||
            (joined.count(e.right_alias) > 0 && e.left_alias == alias);
        if (connects) {
          connected.push_back(alias);
          break;
        }
      }
    }
    std::string next =
        cheapest(connected.empty() ? remaining : connected);
    remaining.erase(std::find(remaining.begin(), remaining.end(), next));

    // Edges between the joined set and `next`, normalized as
    // (plan-side qualified column, next-side unqualified column).
    std::vector<std::pair<std::string, std::string>> key_pairs;
    for (const JoinEdge& e : edges) {
      if (joined.count(e.left_alias) > 0 && e.right_alias == next) {
        key_pairs.emplace_back(e.left_alias + "." + e.left_column,
                               e.right_column);
      } else if (joined.count(e.right_alias) > 0 && e.left_alias == next) {
        key_pairs.emplace_back(e.right_alias + "." + e.right_column,
                               e.left_column);
      }
    }

    const Table* next_table = table_of[next];
    const AccessPath& next_path = paths[next];
    double next_rows = next_path.estimated_rows;

    bool can_index_join =
        options.enable_index_joins && !key_pairs.empty() &&
        !next_path.index_condition.has_value() &&
        IndexUsable(*next_table, key_pairs[0].second, options);

    if (can_index_join) {
      ExprPtr inner_filter = MakeAndAll(next_path.residual);
      PhysOpPtr joined_plan = std::make_unique<IndexNestedLoopJoinOp>(
          std::move(plan), next_table, next, key_pairs[0].first,
          key_pairs[0].second, std::move(inner_filter));
      plan = std::move(joined_plan);
      // Any additional equality edges become post-join filters.
      for (size_t k = 1; k < key_pairs.size(); ++k) {
        plan = std::make_unique<FilterOp>(
            std::move(plan),
            MakeBinary(BinaryOp::kEq, MakeColumn(key_pairs[k].first),
                       MakeColumn(next + "." + key_pairs[k].second)));
      }
    } else {
      PhysOpPtr next_plan = BuildTableAccess(*next_table, next, next_path);
      std::vector<std::string> left_keys, right_keys;
      for (const auto& [plan_col, next_col] : key_pairs) {
        left_keys.push_back(next + "." + next_col);  // build side = next
        right_keys.push_back(plan_col);              // probe side = plan
      }
      // Build on the (estimated) smaller input.
      if (next_rows <= plan_rows) {
        plan = std::make_unique<HashJoinOp>(std::move(next_plan),
                                            std::move(plan), left_keys,
                                            right_keys);
      } else {
        plan = std::make_unique<HashJoinOp>(std::move(plan),
                                            std::move(next_plan), right_keys,
                                            left_keys);
      }
    }

    // Cardinality estimate of the join result.
    if (key_pairs.empty()) {
      plan_rows = plan_rows * next_rows;
    } else {
      double d = std::max(DistinctCount(*next_table, key_pairs[0].second),
                          1.0);
      plan_rows = std::max(plan_rows * next_rows / d, 1.0);
    }
    joined.insert(next);
  }

  // 6. Residual multi-table predicates.
  ExprPtr residual_pred = MakeAndAll(residual);
  if (residual_pred != nullptr) {
    plan = std::make_unique<FilterOp>(std::move(plan),
                                      std::move(residual_pred));
  }

  // 6b. Aggregation (GROUP BY / aggregate select items / HAVING).
  if (stmt.HasAggregates()) {
    if (stmt.select_all) {
      return Status::InvalidArgument("SELECT * cannot be aggregated");
    }
    std::vector<std::string> group_by;
    for (const std::string& column : stmt.group_by) {
      LAKEFED_ASSIGN_OR_RETURN(std::string qualified,
                               resolver.Qualify(column));
      group_by.push_back(std::move(qualified));
    }
    std::vector<SelectItem> agg_items;
    for (const SelectItem& item : stmt.items) {
      SelectItem qualified = item;
      if (item.expr != nullptr) {
        LAKEFED_ASSIGN_OR_RETURN(qualified.expr,
                                 resolver.QualifyExpr(item.expr));
      }
      if (!qualified.IsAggregate() &&
          qualified.expr->kind() != Expr::Kind::kColumnRef) {
        return Status::InvalidArgument(
            "non-aggregate select items must be GROUP BY columns");
      }
      agg_items.push_back(std::move(qualified));
    }
    plan = std::make_unique<AggregateOp>(std::move(plan),
                                         std::move(group_by),
                                         std::move(agg_items));
    // HAVING runs over the aggregate's output columns (use aliases).
    if (stmt.having != nullptr) {
      plan = std::make_unique<FilterOp>(std::move(plan), stmt.having);
    }
    if (stmt.distinct) plan = std::make_unique<DistinctOp>(std::move(plan));
    if (!stmt.order_by.empty()) {
      for (const OrderByItem& item : stmt.order_by) {
        if (!plan->output_schema().FindColumn(item.column)) {
          return Status::NotFound("ORDER BY column '" + item.column +
                                  "' not in the aggregate output");
        }
      }
      plan = std::make_unique<SortOp>(std::move(plan), stmt.order_by);
    }
    if (stmt.limit.has_value()) {
      plan = std::make_unique<LimitOp>(std::move(plan), *stmt.limit);
    }
    return plan;
  }

  // 7. Projection and ORDER BY placement. ORDER BY may reference projected
  // aliases (sort after the projection) or underlying columns that are not
  // projected (sort before the projection, SQL-style).
  std::vector<SelectItem> project_items;
  if (!stmt.select_all) {
    for (const SelectItem& item : stmt.items) {
      LAKEFED_ASSIGN_OR_RETURN(ExprPtr q, resolver.QualifyExpr(item.expr));
      project_items.push_back({std::move(q), item.alias});
    }
  }
  auto in_projection = [&](const std::string& name) {
    for (const SelectItem& item : project_items) {
      if (item.alias == name) return true;
    }
    return false;
  };

  bool sort_after_project = true;
  std::vector<OrderByItem> order_by;
  if (!stmt.order_by.empty()) {
    if (!stmt.select_all) {
      for (const OrderByItem& item : stmt.order_by) {
        if (!in_projection(item.column)) {
          sort_after_project = false;
          break;
        }
      }
    }
    for (const OrderByItem& item : stmt.order_by) {
      OrderByItem resolved = item;
      bool projected = !stmt.select_all && in_projection(item.column);
      if (!projected || !sort_after_project) {
        LAKEFED_ASSIGN_OR_RETURN(resolved.column,
                                 resolver.Qualify(item.column));
      }
      order_by.push_back(std::move(resolved));
    }
  }

  // DISTINCT is planned only when the primary keys cannot prove it a no-op.
  bool needs_distinct =
      stmt.distinct &&
      !KeysProveDistinct(bindings, stmt.select_all, project_items);

  if (!order_by.empty() && !sort_after_project) {
    plan = std::make_unique<SortOp>(std::move(plan), std::move(order_by));
  }
  if (!stmt.select_all) {
    plan = std::make_unique<ProjectOp>(std::move(plan),
                                       std::move(project_items));
  }

  // 8. Distinct / Sort / Limit.
  if (needs_distinct) {
    plan = std::make_unique<DistinctOp>(std::move(plan));
  }
  if (!order_by.empty() && sort_after_project) {
    plan = std::make_unique<SortOp>(std::move(plan), std::move(order_by));
  }
  if (stmt.limit.has_value()) {
    plan = std::make_unique<LimitOp>(std::move(plan), *stmt.limit);
  }
  return plan;
}

}  // namespace lakefed::rel
