// Catalog: the named tables of one relational database instance, plus the
// metadata (indexes, statistics) the planner and the federated mediator read.

#ifndef LAKEFED_REL_CATALOG_H_
#define LAKEFED_REL_CATALOG_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "rel/table.h"

namespace lakefed::rel {

class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  Result<Table*> CreateTable(const std::string& name, Schema schema,
                             std::optional<std::string> primary_key);

  Table* GetTable(const std::string& name);
  const Table* GetTable(const std::string& name) const;

  std::vector<std::string> TableNames() const;
  size_t num_tables() const { return tables_.size(); }

 private:
  std::map<std::string, std::unique_ptr<Table>> tables_;
};

}  // namespace lakefed::rel

#endif  // LAKEFED_REL_CATALOG_H_
