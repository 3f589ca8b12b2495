#include "rel/executor.h"

#include <algorithm>
#include <map>

namespace lakefed::rel {

Schema QualifiedSchema(const Table& table, const std::string& alias) {
  std::vector<ColumnDef> columns;
  columns.reserve(table.schema().num_columns());
  for (const ColumnDef& col : table.schema().columns()) {
    columns.push_back({alias + "." + col.name, col.type, col.nullable});
  }
  return Schema(std::move(columns));
}

size_t HashKeyColumns(const Row& row, const std::vector<size_t>& key_idx) {
  size_t h = 1469598103934665603ull;
  for (size_t idx : key_idx) h = (h ^ row[idx].Hash()) * 1099511628211ull;
  return h;
}

void PhysOp::ExplainInto(std::string* out, int indent) const {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  out->append("-> ");
  out->append(Describe());
  out->push_back('\n');
  for (const PhysOp* child : children()) {
    child->ExplainInto(out, indent + 1);
  }
}

std::string PhysOp::Explain() const {
  std::string out;
  ExplainInto(&out, 0);
  return out;
}

// --- SeqScanOp ---------------------------------------------------------------

SeqScanOp::SeqScanOp(const Table* table, std::string alias)
    : table_(table), alias_(std::move(alias)) {
  schema_ = QualifiedSchema(*table_, alias_);
}

Status SeqScanOp::Open() {
  pos_ = 0;
  rows_read_ = 0;
  return Status::OK();
}

Result<const Row*> SeqScanOp::Next() {
  if (pos_ >= table_->num_rows()) return nullptr;
  ++rows_read_;
  return &table_->row(static_cast<RowId>(pos_++));
}

std::string SeqScanOp::Describe() const {
  return "SeqScan " + table_->name() + " AS " + alias_ + " (" +
         std::to_string(table_->num_rows()) + " rows)";
}

void SeqScanOp::AccumulateCounters(ExecCounters* counters) const {
  counters->rows_scanned += rows_read_;
}

// --- IndexScanOp -------------------------------------------------------------

std::string IndexCondition::ToString() const {
  if (!equal_values.empty()) {
    if (equal_values.size() == 1) {
      return column + " = " + equal_values[0].ToSqlLiteral();
    }
    std::string out = column + " IN (";
    for (size_t i = 0; i < equal_values.size(); ++i) {
      if (i > 0) out += ", ";
      out += equal_values[i].ToSqlLiteral();
    }
    return out + ")";
  }
  std::string out = column;
  if (lo.value.has_value()) {
    out = lo.value->ToSqlLiteral() + (lo.inclusive ? " <= " : " < ") + out;
  }
  if (hi.value.has_value()) {
    out += (hi.inclusive ? " <= " : " < ") + hi.value->ToSqlLiteral();
  }
  return out;
}

IndexScanOp::IndexScanOp(const Table* table, std::string alias,
                         IndexCondition condition)
    : table_(table),
      alias_(std::move(alias)),
      condition_(std::move(condition)) {
  schema_ = QualifiedSchema(*table_, alias_);
}

Status IndexScanOp::Open() {
  matches_.clear();
  pos_ = 0;
  next_value_ = 0;
  lookups_ = 0;
  rows_lent_ = 0;
  index_ = table_->IndexOn(condition_.column);
  if (index_ == nullptr) {
    return Status::Internal("IndexScan on unindexed column " +
                            table_->name() + "." + condition_.column);
  }
  if (condition_.equal_values.empty()) {
    ++lookups_;
    matches_ = index_->Range(condition_.lo, condition_.hi);
  }
  return Status::OK();
}

Result<const Row*> IndexScanOp::Next() {
  // Equality/IN: probe the next value only once the current one's matches
  // are used up, so a plan stopped early pays only the lookups it needed.
  while (pos_ >= matches_.size()) {
    if (next_value_ >= condition_.equal_values.size()) return nullptr;
    ++lookups_;
    matches_ = index_->Lookup(condition_.equal_values[next_value_++]);
    pos_ = 0;
  }
  ++rows_lent_;
  return &table_->row(matches_[pos_++]);
}

std::string IndexScanOp::Describe() const {
  return "IndexScan " + table_->name() + " AS " + alias_ + " ON " +
         condition_.ToString();
}

void IndexScanOp::AccumulateCounters(ExecCounters* counters) const {
  counters->rows_scanned += rows_lent_;
  counters->index_lookups += lookups_;
}

// --- FilterOp ----------------------------------------------------------------

FilterOp::FilterOp(PhysOpPtr child, ExprPtr predicate)
    : child_(std::move(child)) {
  schema_ = child_->output_schema();
  predicate_ = BindColumns(predicate, schema_);
}

Status FilterOp::Open() { return child_->Open(); }

Result<const Row*> FilterOp::Next() {
  while (true) {
    LAKEFED_ASSIGN_OR_RETURN(const Row* row, child_->Next());
    if (row == nullptr) return nullptr;
    LAKEFED_ASSIGN_OR_RETURN(bool keep,
                             EvalPredicate(*predicate_, *row, schema_));
    if (keep) return row;
  }
}

std::string FilterOp::Describe() const {
  return "Filter " + predicate_->ToString();
}

// --- ProjectOp ---------------------------------------------------------------

ProjectOp::ProjectOp(PhysOpPtr child, std::vector<SelectItem> items)
    : child_(std::move(child)), items_(std::move(items)) {
  std::vector<ColumnDef> columns;
  columns.reserve(items_.size());
  for (SelectItem& item : items_) {
    // Output types are dynamic; declare STRING/nullable-agnostic metadata by
    // inferring from the child when the item is a plain column reference.
    ColumnDef def{item.alias, ColumnType::kString, true};
    if (item.expr->kind() == Expr::Kind::kColumnRef) {
      const auto* ref = static_cast<const ColumnRefExpr*>(item.expr.get());
      if (auto idx = child_->output_schema().FindColumn(ref->name())) {
        def.type = child_->output_schema().column(*idx).type;
        def.nullable = child_->output_schema().column(*idx).nullable;
      }
    }
    columns.push_back(std::move(def));
    item.expr = BindColumns(item.expr, child_->output_schema());
    std::optional<size_t> column;
    if (item.expr->kind() == Expr::Kind::kColumnRef) {
      column = static_cast<const ColumnRefExpr*>(item.expr.get())->index();
    }
    copy_from_.push_back(column);
  }
  schema_ = Schema(std::move(columns));
  out_.resize(items_.size());
}

Status ProjectOp::Open() { return child_->Open(); }

Result<const Row*> ProjectOp::Next() {
  LAKEFED_ASSIGN_OR_RETURN(const Row* row, child_->Next());
  if (row == nullptr) return nullptr;
  for (size_t i = 0; i < items_.size(); ++i) {
    if (copy_from_[i].has_value()) {
      out_[i] = (*row)[*copy_from_[i]];  // copy-assign: strings reuse capacity
      continue;
    }
    LAKEFED_ASSIGN_OR_RETURN(
        out_[i], items_[i].expr->Eval(*row, child_->output_schema()));
  }
  return &out_;
}

std::string ProjectOp::Describe() const {
  std::string out = "Project ";
  for (size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out += ", ";
    out += items_[i].alias;
  }
  return out;
}

// --- AggregateOp --------------------------------------------------------------

AggregateOp::AggregateOp(PhysOpPtr child, std::vector<std::string> group_by,
                         std::vector<SelectItem> items)
    : child_(std::move(child)),
      group_by_(std::move(group_by)),
      items_(std::move(items)) {
  std::vector<ColumnDef> columns;
  for (SelectItem& item : items_) {
    ColumnDef def{item.alias, ColumnType::kString, true};
    switch (item.agg) {
      case AggFunc::kCount:
        def.type = ColumnType::kInt64;
        def.nullable = false;
        break;
      case AggFunc::kAvg:
        def.type = ColumnType::kDouble;
        break;
      default:
        if (item.expr != nullptr &&
            item.expr->kind() == Expr::Kind::kColumnRef) {
          const auto* ref = static_cast<const ColumnRefExpr*>(item.expr.get());
          if (auto idx = child_->output_schema().FindColumn(ref->name())) {
            def.type = child_->output_schema().column(*idx).type;
          }
        }
        break;
    }
    columns.push_back(std::move(def));
    item.expr = BindColumns(item.expr, child_->output_schema());
  }
  schema_ = Schema(std::move(columns));
}

Status AggregateOp::Open() {
  results_.clear();
  pos_ = 0;
  materialized_ = false;
  return child_->Open();
}

namespace {

// Accumulator of one aggregate within one group.
struct AggState {
  int64_t count = 0;       // non-null inputs (rows for COUNT(*))
  double sum = 0;
  bool sum_valid = true;   // all inputs numeric
  Value min, max;          // null until first value
  std::unordered_map<Value, bool, ValueHash> distinct;

  void Add(const Value& v, bool distinct_only) {
    if (distinct_only && !distinct.emplace(v, true).second) return;
    ++count;
    if (v.is_numeric()) {
      sum += v.AsDouble();
    } else {
      sum_valid = false;
    }
    if (min.is_null() || v < min) min = v;
    if (max.is_null() || v > max) max = v;
  }

  Result<Value> Finish(AggFunc func) const {
    switch (func) {
      case AggFunc::kCount:
        return Value(count);
      case AggFunc::kSum:
      case AggFunc::kAvg:
        if (count == 0) return Value::Null();
        if (!sum_valid) {
          return Status::TypeError("SUM/AVG over non-numeric values");
        }
        return func == AggFunc::kSum
                   ? Value(sum)
                   : Value(sum / static_cast<double>(count));
      case AggFunc::kMin:
        return min;
      case AggFunc::kMax:
        return max;
      case AggFunc::kNone:
        break;
    }
    return Status::Internal("not an aggregate");
  }
};

}  // namespace

Status AggregateOp::Materialize() {
  // Group key -> (representative group values, per-item accumulators).
  struct Group {
    Row key_values;
    std::vector<AggState> states;
  };
  std::map<std::string, Group> groups;  // keyed by serialized group values
  std::vector<size_t> group_idx;
  for (const std::string& column : group_by_) {
    LAKEFED_ASSIGN_OR_RETURN(size_t idx,
                             child_->output_schema().ColumnIndex(column));
    group_idx.push_back(idx);
  }

  while (true) {
    LAKEFED_ASSIGN_OR_RETURN(const Row* row, child_->Next());
    if (row == nullptr) break;
    std::string key;
    Row key_values;
    for (size_t idx : group_idx) {
      key += (*row)[idx].ToString();
      key.push_back('\x01');
      key_values.push_back((*row)[idx]);
    }
    auto [it, inserted] = groups.try_emplace(key);
    if (inserted) {
      it->second.key_values = std::move(key_values);
      it->second.states.resize(items_.size());
    }
    for (size_t i = 0; i < items_.size(); ++i) {
      const SelectItem& item = items_[i];
      if (!item.IsAggregate()) continue;
      if (item.expr == nullptr) {  // COUNT(*)
        ++it->second.states[i].count;
        continue;
      }
      LAKEFED_ASSIGN_OR_RETURN(
          Value v, item.expr->Eval(*row, child_->output_schema()));
      if (v.is_null()) continue;  // NULLs are ignored by aggregates
      it->second.states[i].Add(v, item.agg_distinct);
    }
  }

  // Global aggregation over empty input still yields one row.
  if (groups.empty() && group_by_.empty()) {
    Group global;
    global.states.resize(items_.size());
    groups.emplace("", std::move(global));
  }

  for (const auto& [key, group] : groups) {
    Row out;
    out.reserve(items_.size());
    for (size_t i = 0; i < items_.size(); ++i) {
      const SelectItem& item = items_[i];
      if (item.IsAggregate()) {
        LAKEFED_ASSIGN_OR_RETURN(Value v, group.states[i].Finish(item.agg));
        out.push_back(std::move(v));
        continue;
      }
      // Non-aggregate item: a group-by column reference.
      const auto* ref = static_cast<const ColumnRefExpr*>(item.expr.get());
      bool found = false;
      for (size_t g = 0; g < group_by_.size(); ++g) {
        if (group_by_[g] == ref->name()) {
          out.push_back(group.key_values[g]);
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::InvalidArgument(
            "select item '" + ref->name() +
            "' is neither aggregated nor in GROUP BY");
      }
    }
    results_.push_back(std::move(out));
  }
  materialized_ = true;
  return Status::OK();
}

Result<const Row*> AggregateOp::Next() {
  if (!materialized_) LAKEFED_RETURN_NOT_OK(Materialize());
  if (pos_ >= results_.size()) return nullptr;
  return &results_[pos_++];
}

std::string AggregateOp::Describe() const {
  std::string out = "Aggregate";
  if (!group_by_.empty()) {
    out += " GROUP BY";
    for (const std::string& c : group_by_) out += " " + c;
  }
  for (const SelectItem& item : items_) {
    if (item.IsAggregate()) out += " " + item.alias;
  }
  return out;
}

// --- DistinctOp --------------------------------------------------------------

DistinctOp::DistinctOp(PhysOpPtr child) : child_(std::move(child)) {
  schema_ = child_->output_schema();
}

Status DistinctOp::Open() {
  seen_.clear();
  return child_->Open();
}

Result<const Row*> DistinctOp::Next() {
  while (true) {
    LAKEFED_ASSIGN_OR_RETURN(const Row* row, child_->Next());
    if (row == nullptr) return nullptr;
    auto [it, inserted] = seen_.insert(*row);
    if (inserted) return &*it;
  }
}

// --- SortOp ------------------------------------------------------------------

SortOp::SortOp(PhysOpPtr child, std::vector<OrderByItem> order_by)
    : child_(std::move(child)), order_by_(std::move(order_by)) {
  schema_ = child_->output_schema();
}

Status SortOp::Open() {
  rows_.clear();
  pos_ = 0;
  materialized_ = false;
  return child_->Open();
}

Result<const Row*> SortOp::Next() {
  if (!materialized_) {
    std::vector<size_t> key_idx;
    std::vector<bool> ascending;
    for (const OrderByItem& item : order_by_) {
      LAKEFED_ASSIGN_OR_RETURN(size_t idx, schema_.ColumnIndex(item.column));
      key_idx.push_back(idx);
      ascending.push_back(item.ascending);
    }
    while (true) {
      LAKEFED_ASSIGN_OR_RETURN(const Row* row, child_->Next());
      if (row == nullptr) break;
      rows_.push_back(*row);
    }
    std::stable_sort(rows_.begin(), rows_.end(),
                     [&](const Row& a, const Row& b) {
                       for (size_t k = 0; k < key_idx.size(); ++k) {
                         int c = a[key_idx[k]].Compare(b[key_idx[k]]);
                         if (c != 0) return ascending[k] ? c < 0 : c > 0;
                       }
                       return false;
                     });
    materialized_ = true;
  }
  if (pos_ >= rows_.size()) return nullptr;
  return &rows_[pos_++];
}

std::string SortOp::Describe() const {
  std::string out = "Sort ";
  for (size_t i = 0; i < order_by_.size(); ++i) {
    if (i > 0) out += ", ";
    out += order_by_[i].column + (order_by_[i].ascending ? "" : " DESC");
  }
  return out;
}

// --- LimitOp -----------------------------------------------------------------

LimitOp::LimitOp(PhysOpPtr child, int64_t limit)
    : child_(std::move(child)), limit_(limit) {
  schema_ = child_->output_schema();
}

Status LimitOp::Open() {
  emitted_ = 0;
  return child_->Open();
}

Result<const Row*> LimitOp::Next() {
  if (emitted_ >= limit_) return nullptr;
  LAKEFED_ASSIGN_OR_RETURN(const Row* row, child_->Next());
  if (row != nullptr) ++emitted_;
  return row;
}

std::string LimitOp::Describe() const {
  return "Limit " + std::to_string(limit_);
}

// --- HashJoinOp --------------------------------------------------------------

HashJoinOp::HashJoinOp(PhysOpPtr left, PhysOpPtr right,
                       std::vector<std::string> left_keys,
                       std::vector<std::string> right_keys)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)) {
  std::vector<ColumnDef> columns = left_->output_schema().columns();
  for (const ColumnDef& col : right_->output_schema().columns()) {
    columns.push_back(col);
  }
  schema_ = Schema(std::move(columns));
  out_.resize(schema_.num_columns());
}

Status HashJoinOp::Open() {
  LAKEFED_RETURN_NOT_OK(left_->Open());
  LAKEFED_RETURN_NOT_OK(right_->Open());
  build_.clear();
  built_ = false;
  probe_row_ = nullptr;
  matches_ = nullptr;
  match_pos_ = 0;
  left_key_idx_.clear();
  right_key_idx_.clear();
  for (const std::string& key : left_keys_) {
    LAKEFED_ASSIGN_OR_RETURN(size_t idx,
                             left_->output_schema().ColumnIndex(key));
    left_key_idx_.push_back(idx);
  }
  for (const std::string& key : right_keys_) {
    LAKEFED_ASSIGN_OR_RETURN(size_t idx,
                             right_->output_schema().ColumnIndex(key));
    right_key_idx_.push_back(idx);
  }
  return Status::OK();
}

Status HashJoinOp::BuildTable() {
  while (true) {
    LAKEFED_ASSIGN_OR_RETURN(const Row* row, left_->Next());
    if (row == nullptr) break;
    bool has_null_key = false;
    for (size_t idx : left_key_idx_) {
      if ((*row)[idx].is_null()) {
        has_null_key = true;
        break;
      }
    }
    if (has_null_key) continue;  // NULL never joins
    // The build side outlives left_'s next Next(): keep a copy.
    build_[HashKeyColumns(*row, left_key_idx_)].push_back(*row);
  }
  built_ = true;
  return Status::OK();
}

Result<const Row*> HashJoinOp::Next() {
  if (!built_) LAKEFED_RETURN_NOT_OK(BuildTable());
  while (true) {
    if (matches_ != nullptr) {
      const Row& probe = *probe_row_;
      while (match_pos_ < matches_->size()) {
        const Row& build_row = (*matches_)[match_pos_++];
        // Verify key equality (hash buckets may collide).
        bool equal = true;
        for (size_t k = 0; k < left_key_idx_.size(); ++k) {
          if (build_row[left_key_idx_[k]] != probe[right_key_idx_[k]]) {
            equal = false;
            break;
          }
        }
        if (!equal) continue;
        std::copy(build_row.begin(), build_row.end(), out_.begin());
        std::copy(probe.begin(), probe.end(),
                  out_.begin() + static_cast<ptrdiff_t>(build_row.size()));
        return &out_;
      }
      matches_ = nullptr;
    }
    LAKEFED_ASSIGN_OR_RETURN(probe_row_, right_->Next());
    if (probe_row_ == nullptr) return nullptr;
    bool has_null_key = false;
    for (size_t idx : right_key_idx_) {
      if ((*probe_row_)[idx].is_null()) {
        has_null_key = true;
        break;
      }
    }
    if (has_null_key) continue;
    auto it = build_.find(HashKeyColumns(*probe_row_, right_key_idx_));
    if (it == build_.end()) continue;
    matches_ = &it->second;
    match_pos_ = 0;
  }
}

std::string HashJoinOp::Describe() const {
  std::string out = "HashJoin ";
  for (size_t i = 0; i < left_keys_.size(); ++i) {
    if (i > 0) out += " AND ";
    out += left_keys_[i] + " = " + right_keys_[i];
  }
  return out;
}

// --- IndexNestedLoopJoinOp ----------------------------------------------------

IndexNestedLoopJoinOp::IndexNestedLoopJoinOp(PhysOpPtr outer,
                                             const Table* inner,
                                             std::string inner_alias,
                                             std::string outer_key,
                                             std::string inner_column,
                                             ExprPtr inner_filter)
    : outer_(std::move(outer)),
      inner_(inner),
      inner_alias_(std::move(inner_alias)),
      outer_key_(std::move(outer_key)),
      inner_column_(std::move(inner_column)),
      inner_filter_(std::move(inner_filter)) {
  inner_schema_ = QualifiedSchema(*inner_, inner_alias_);
  inner_filter_ = BindColumns(inner_filter_, inner_schema_);
  std::vector<ColumnDef> columns = outer_->output_schema().columns();
  for (const ColumnDef& col : inner_schema_.columns()) columns.push_back(col);
  schema_ = Schema(std::move(columns));
  out_.resize(schema_.num_columns());
}

Status IndexNestedLoopJoinOp::Open() {
  LAKEFED_RETURN_NOT_OK(outer_->Open());
  LAKEFED_ASSIGN_OR_RETURN(outer_key_idx_,
                           outer_->output_schema().ColumnIndex(outer_key_));
  if (inner_->IndexOn(inner_column_) == nullptr) {
    return Status::Internal("IndexNLJoin on unindexed column " +
                            inner_->name() + "." + inner_column_);
  }
  outer_done_ = false;
  outer_row_ = nullptr;
  matches_.clear();
  match_pos_ = 0;
  lookups_ = 0;
  rows_read_ = 0;
  return Status::OK();
}

Result<const Row*> IndexNestedLoopJoinOp::Next() {
  const BPlusTree* index = inner_->IndexOn(inner_column_);
  while (true) {
    while (match_pos_ < matches_.size()) {
      const Row& inner_row = inner_->row(matches_[match_pos_++]);
      ++rows_read_;
      if (inner_filter_ != nullptr) {
        LAKEFED_ASSIGN_OR_RETURN(
            bool keep,
            EvalPredicate(*inner_filter_, inner_row, inner_schema_));
        if (!keep) continue;
      }
      std::copy(outer_row_->begin(), outer_row_->end(), out_.begin());
      std::copy(inner_row.begin(), inner_row.end(),
                out_.begin() + static_cast<ptrdiff_t>(outer_row_->size()));
      return &out_;
    }
    if (outer_done_) return nullptr;
    LAKEFED_ASSIGN_OR_RETURN(outer_row_, outer_->Next());
    if (outer_row_ == nullptr) {
      outer_done_ = true;
      return nullptr;
    }
    const Value& key = (*outer_row_)[outer_key_idx_];
    matches_.clear();
    match_pos_ = 0;
    if (key.is_null()) continue;
    ++lookups_;
    matches_ = index->Lookup(key);
  }
}

std::string IndexNestedLoopJoinOp::Describe() const {
  std::string out = "IndexNLJoin " + inner_->name() + " AS " + inner_alias_ +
                    " ON " + outer_key_ + " = " + inner_alias_ + "." +
                    inner_column_;
  if (inner_filter_ != nullptr) {
    out += " WITH " + inner_filter_->ToString();
  }
  return out;
}

void IndexNestedLoopJoinOp::AccumulateCounters(ExecCounters* counters) const {
  outer_->AccumulateCounters(counters);
  counters->index_lookups += lookups_;
  counters->rows_scanned += rows_read_;
}

}  // namespace lakefed::rel
