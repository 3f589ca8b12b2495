// Database: the public facade of one relational endpoint of the Data Lake
// (the role MySQL containers play in the paper). Owns a Catalog, parses and
// plans SQL, executes, and exposes physical-design metadata to the mediator.

#ifndef LAKEFED_REL_DATABASE_H_
#define LAKEFED_REL_DATABASE_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "rel/catalog.h"
#include "rel/planner.h"
#include "rel/sql_parser.h"

namespace lakefed::rel {

struct QueryResult {
  std::vector<std::string> column_names;
  std::vector<Row> rows;
  ExecCounters counters;
};

// Called once per result row; the row is only valid during the call.
// Returning false stops the plan.
using RowVisitor = std::function<bool(const Row&)>;

class Database {
 public:
  explicit Database(std::string name) : name_(std::move(name)) {}

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  const std::string& name() const { return name_; }
  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  PlannerOptions& options() { return options_; }

  // Parses, plans and fully executes a SELECT.
  Result<QueryResult> Execute(const std::string& sql) const;
  Result<QueryResult> ExecuteStatement(const SelectStatement& stmt) const;

  // Plans `stmt` and streams its rows through `visit` as the plan produces
  // them, without materializing the result. Fills `counters` (may be null)
  // with the work done, also when `visit` stops the plan early.
  Status Scan(const SelectStatement& stmt, const RowVisitor& visit,
              ExecCounters* counters) const;

  // The plan that would be executed, without running it.
  Result<std::string> Explain(const std::string& sql) const;

  // Physical-design introspection used by the federated mediator:
  // is there any index (PK or secondary) on table.column?
  bool IsIndexed(const std::string& table, const std::string& column) const;

 private:
  std::string name_;
  Catalog catalog_;
  PlannerOptions options_;
};

}  // namespace lakefed::rel

#endif  // LAKEFED_REL_DATABASE_H_
