#include "rel/catalog.h"

namespace lakefed::rel {

Result<Table*> Catalog::CreateTable(const std::string& name, Schema schema,
                                    std::optional<std::string> primary_key) {
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("table '" + name + "'");
  }
  if (primary_key.has_value() && !schema.FindColumn(*primary_key)) {
    return Status::InvalidArgument("primary key column '" + *primary_key +
                                   "' not in schema of '" + name + "'");
  }
  auto table = std::make_unique<Table>(name, std::move(schema),
                                       std::move(primary_key));
  Table* ptr = table.get();
  tables_[name] = std::move(table);
  return ptr;
}

Table* Catalog::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

const Table* Catalog::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

}  // namespace lakefed::rel
