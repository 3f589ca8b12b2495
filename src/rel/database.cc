#include "rel/database.h"

namespace lakefed::rel {
namespace {

// Runs a planned statement through `visit` (see Database::Scan).
Status Drive(PhysOp* plan, const RowVisitor& visit, ExecCounters* counters) {
  LAKEFED_RETURN_NOT_OK(plan->Open());
  size_t produced = 0;
  while (true) {
    LAKEFED_ASSIGN_OR_RETURN(const Row* row, plan->Next());
    if (row == nullptr) break;
    ++produced;
    if (!visit(*row)) break;
  }
  if (counters != nullptr) {
    plan->AccumulateCounters(counters);
    counters->rows_produced = produced;
  }
  return Status::OK();
}

}  // namespace

Result<QueryResult> Database::Execute(const std::string& sql) const {
  LAKEFED_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSql(sql));
  return ExecuteStatement(stmt);
}

Result<QueryResult> Database::ExecuteStatement(
    const SelectStatement& stmt) const {
  LAKEFED_ASSIGN_OR_RETURN(PhysOpPtr plan,
                           PlanSelect(stmt, catalog_, options_));
  QueryResult result;
  for (const ColumnDef& col : plan->output_schema().columns()) {
    result.column_names.push_back(col.name);
  }
  LAKEFED_RETURN_NOT_OK(Drive(
      plan.get(),
      [&result](const Row& row) {
        result.rows.push_back(row);
        return true;
      },
      &result.counters));
  return result;
}

Status Database::Scan(const SelectStatement& stmt, const RowVisitor& visit,
                      ExecCounters* counters) const {
  LAKEFED_ASSIGN_OR_RETURN(PhysOpPtr plan,
                           PlanSelect(stmt, catalog_, options_));
  return Drive(plan.get(), visit, counters);
}

Result<std::string> Database::Explain(const std::string& sql) const {
  LAKEFED_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSql(sql));
  LAKEFED_ASSIGN_OR_RETURN(PhysOpPtr plan,
                           PlanSelect(stmt, catalog_, options_));
  return plan->Explain();
}

bool Database::IsIndexed(const std::string& table,
                         const std::string& column) const {
  const Table* t = catalog_.GetTable(table);
  return t != nullptr && t->HasIndexOn(column);
}

}  // namespace lakefed::rel
