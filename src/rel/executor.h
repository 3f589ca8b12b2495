// Physical operators of the relational engine (volcano / iterator model):
// SeqScan, IndexScan, Filter, HashJoin, IndexNestedLoopJoin, Project,
// Distinct, Sort, Limit. The planner assembles these into a PhysOp tree.
//
// Scan operators emit rows under a *qualified* schema: column `c` of a table
// scanned under alias `a` is named `a.c` so multi-table expressions resolve
// unambiguously.
//
// Cursor contract: Next() lends its row — a pointer the operator keeps
// valid until its next Next() or Open() call, nullptr at end of stream. No
// operator copies a row to pass it on: scans lend the table's row in place,
// Filter and Limit pass their child's pointer through, Project and the
// joins assemble into one reused output row, Distinct lends the row it
// stored in its seen-set, and Sort/Aggregate lend rows of their
// materialized vectors. A consumer that needs a row past its child's next
// Next() (a hash-join build side, a sort buffer) copies it.

#ifndef LAKEFED_REL_EXECUTOR_H_
#define LAKEFED_REL_EXECUTOR_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "rel/expr.h"
#include "rel/schema.h"
#include "rel/sql_ast.h"
#include "rel/table.h"

namespace lakefed::rel {

// Execution counters aggregated across a plan (EXPLAIN ANALYZE-style).
struct ExecCounters {
  size_t rows_scanned = 0;     // rows read from base tables
  size_t index_lookups = 0;    // B+-tree probes
  size_t rows_produced = 0;    // rows leaving the root
};

class PhysOp {
 public:
  virtual ~PhysOp() = default;

  const Schema& output_schema() const { return schema_; }

  // (Re)starts the operator; idempotent.
  virtual Status Open() = 0;
  // Next row, borrowed until the next Next()/Open(); nullptr at end of
  // stream.
  virtual Result<const Row*> Next() = 0;
  // One-line description for EXPLAIN.
  virtual std::string Describe() const = 0;
  virtual std::vector<const PhysOp*> children() const { return {}; }

  // Indented plan rendering.
  std::string Explain() const;

  virtual void AccumulateCounters(ExecCounters* /*counters*/) const {}

 protected:
  Schema schema_;

 private:
  void ExplainInto(std::string* out, int indent) const;
};

using PhysOpPtr = std::unique_ptr<PhysOp>;

// --- leaf scans -------------------------------------------------------------

class SeqScanOp : public PhysOp {
 public:
  SeqScanOp(const Table* table, std::string alias);
  Status Open() override;
  Result<const Row*> Next() override;
  std::string Describe() const override;
  void AccumulateCounters(ExecCounters* counters) const override;

 private:
  const Table* table_;
  std::string alias_;
  size_t pos_ = 0;
  size_t rows_read_ = 0;
};

// Index access: either an equality probe (possibly on several values, for IN,
// probed one at a time as the scan reaches them) or a range scan [lo, hi].
struct IndexCondition {
  std::string column;                   // indexed column (unqualified)
  std::vector<Value> equal_values;      // non-empty => equality/IN probe
  BPlusTree::Bound lo, hi;              // used when equal_values is empty
  std::string ToString() const;
};

class IndexScanOp : public PhysOp {
 public:
  IndexScanOp(const Table* table, std::string alias, IndexCondition condition);
  Status Open() override;
  Result<const Row*> Next() override;
  std::string Describe() const override;
  void AccumulateCounters(ExecCounters* counters) const override;

 private:
  const Table* table_;
  std::string alias_;
  IndexCondition condition_;
  const BPlusTree* index_ = nullptr;
  std::vector<RowId> matches_;  // the range, or the current IN value's rows
  size_t pos_ = 0;
  size_t next_value_ = 0;  // next equal_values entry to probe
  size_t lookups_ = 0;
  size_t rows_lent_ = 0;
};

// --- unary operators --------------------------------------------------------

class FilterOp : public PhysOp {
 public:
  FilterOp(PhysOpPtr child, ExprPtr predicate);
  Status Open() override;
  Result<const Row*> Next() override;
  std::string Describe() const override;
  std::vector<const PhysOp*> children() const override {
    return {child_.get()};
  }
  void AccumulateCounters(ExecCounters* counters) const override {
    child_->AccumulateCounters(counters);
  }

 private:
  PhysOpPtr child_;
  ExprPtr predicate_;
};

class ProjectOp : public PhysOp {
 public:
  // Output column i is `items[i].expr` named `items[i].alias`.
  ProjectOp(PhysOpPtr child, std::vector<SelectItem> items);
  Status Open() override;
  Result<const Row*> Next() override;
  std::string Describe() const override;
  std::vector<const PhysOp*> children() const override {
    return {child_.get()};
  }
  void AccumulateCounters(ExecCounters* counters) const override {
    child_->AccumulateCounters(counters);
  }

 private:
  PhysOpPtr child_;
  std::vector<SelectItem> items_;
  // Child column of each item that is a bound column reference (copied
  // cell-wise into out_), nullopt for computed items.
  std::vector<std::optional<size_t>> copy_from_;
  Row out_;  // reused output row
};

// Hash aggregation: groups child rows by the (qualified) `group_by` columns
// and computes one output row per group with the aggregate select items.
// With no GROUP BY there is a single global group (one output row even on
// empty input: COUNT = 0, other aggregates NULL).
class AggregateOp : public PhysOp {
 public:
  // Non-aggregate `items` must be column references to group_by columns.
  AggregateOp(PhysOpPtr child, std::vector<std::string> group_by,
              std::vector<SelectItem> items);
  Status Open() override;
  Result<const Row*> Next() override;
  std::string Describe() const override;
  std::vector<const PhysOp*> children() const override {
    return {child_.get()};
  }
  void AccumulateCounters(ExecCounters* counters) const override {
    child_->AccumulateCounters(counters);
  }

 private:
  Status Materialize();

  PhysOpPtr child_;
  std::vector<std::string> group_by_;
  std::vector<SelectItem> items_;
  std::vector<Row> results_;
  size_t pos_ = 0;
  bool materialized_ = false;
};

class DistinctOp : public PhysOp {
 public:
  explicit DistinctOp(PhysOpPtr child);
  Status Open() override;
  Result<const Row*> Next() override;
  std::string Describe() const override { return "Distinct"; }
  std::vector<const PhysOp*> children() const override {
    return {child_.get()};
  }
  void AccumulateCounters(ExecCounters* counters) const override {
    child_->AccumulateCounters(counters);
  }

 private:
  PhysOpPtr child_;
  std::unordered_set<Row, RowHash> seen_;  // node-based: lent rows stay put
};

class SortOp : public PhysOp {
 public:
  SortOp(PhysOpPtr child, std::vector<OrderByItem> order_by);
  Status Open() override;
  Result<const Row*> Next() override;
  std::string Describe() const override;
  std::vector<const PhysOp*> children() const override {
    return {child_.get()};
  }
  void AccumulateCounters(ExecCounters* counters) const override {
    child_->AccumulateCounters(counters);
  }

 private:
  PhysOpPtr child_;
  std::vector<OrderByItem> order_by_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
  bool materialized_ = false;
};

class LimitOp : public PhysOp {
 public:
  LimitOp(PhysOpPtr child, int64_t limit);
  Status Open() override;
  Result<const Row*> Next() override;
  std::string Describe() const override;
  std::vector<const PhysOp*> children() const override {
    return {child_.get()};
  }
  void AccumulateCounters(ExecCounters* counters) const override {
    child_->AccumulateCounters(counters);
  }

 private:
  PhysOpPtr child_;
  int64_t limit_;
  int64_t emitted_ = 0;
};

// --- joins ------------------------------------------------------------------

// In-memory hash join: builds on the left input, probes with the right.
// Keys are equi-join columns, given as qualified names in each input schema.
class HashJoinOp : public PhysOp {
 public:
  HashJoinOp(PhysOpPtr left, PhysOpPtr right,
             std::vector<std::string> left_keys,
             std::vector<std::string> right_keys);
  Status Open() override;
  Result<const Row*> Next() override;
  std::string Describe() const override;
  std::vector<const PhysOp*> children() const override {
    return {left_.get(), right_.get()};
  }
  void AccumulateCounters(ExecCounters* counters) const override {
    left_->AccumulateCounters(counters);
    right_->AccumulateCounters(counters);
  }

 private:
  Status BuildTable();

  PhysOpPtr left_, right_;
  std::vector<std::string> left_keys_, right_keys_;
  std::vector<size_t> left_key_idx_, right_key_idx_;
  std::unordered_map<size_t, std::vector<Row>> build_;
  bool built_ = false;
  // iteration state while draining matches for the current probe row,
  // borrowed from right_ until its next Next()
  const Row* probe_row_ = nullptr;
  const std::vector<Row>* matches_ = nullptr;
  size_t match_pos_ = 0;
  Row out_;  // reused output row
};

// Index nested-loop join: for every outer row, probes the inner table's
// B+-tree on `inner_column` with the outer row's `outer_key` value, applies
// `inner_filter` (over the inner table's qualified schema), and concatenates.
class IndexNestedLoopJoinOp : public PhysOp {
 public:
  IndexNestedLoopJoinOp(PhysOpPtr outer, const Table* inner,
                        std::string inner_alias, std::string outer_key,
                        std::string inner_column, ExprPtr inner_filter);
  Status Open() override;
  Result<const Row*> Next() override;
  std::string Describe() const override;
  std::vector<const PhysOp*> children() const override {
    return {outer_.get()};
  }
  void AccumulateCounters(ExecCounters* counters) const override;

 private:
  PhysOpPtr outer_;
  const Table* inner_;
  std::string inner_alias_;
  std::string outer_key_;
  std::string inner_column_;
  ExprPtr inner_filter_;
  Schema inner_schema_;  // qualified
  size_t outer_key_idx_ = 0;
  // iteration state; the outer row is borrowed from outer_ until its next
  // Next()
  const Row* outer_row_ = nullptr;
  Row out_;  // reused output row
  std::vector<RowId> matches_;
  size_t match_pos_ = 0;
  bool outer_done_ = true;
  size_t lookups_ = 0;
  size_t rows_read_ = 0;
};

// Qualified schema of `table` under `alias` ("alias.column" names).
Schema QualifiedSchema(const Table& table, const std::string& alias);

// Hash of the key columns of a row (for hash join / distinct buckets).
size_t HashKeyColumns(const Row& row, const std::vector<size_t>& key_idx);

}  // namespace lakefed::rel

#endif  // LAKEFED_REL_EXECUTOR_H_
