// End-to-end SQL execution tests through Database::Execute.

#include <gtest/gtest.h>

#include <algorithm>

#include "rel/executor.h"
#include "rel/sql_parser.h"
#include "rel_test_util.h"

namespace lakefed::rel {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeTestDatabase();
    ASSERT_NE(db_, nullptr);
  }

  QueryResult Run(const std::string& sql) {
    auto result = db_->Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << "\n" << result.status();
    return result.ok() ? std::move(*result) : QueryResult{};
  }

  std::unique_ptr<Database> db_;
};

TEST_F(ExecutorTest, SelectStar) {
  QueryResult r = Run("SELECT * FROM drug");
  EXPECT_EQ(r.rows.size(), 5u);
  ASSERT_EQ(r.column_names.size(), 4u);
  EXPECT_EQ(r.column_names[0], "drug.id");
}

TEST_F(ExecutorTest, Projection) {
  QueryResult r = Run("SELECT name FROM drug WHERE id = 2");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "codeine");
  EXPECT_EQ(r.column_names[0], "name");
}

TEST_F(ExecutorTest, FilterEquality) {
  QueryResult r = Run("SELECT id FROM drug WHERE category = 'nsaid'");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(ExecutorTest, FilterRangeAndLike) {
  QueryResult r = Run("SELECT id FROM drug WHERE weight > 102");
  EXPECT_EQ(r.rows.size(), 2u);
  r = Run("SELECT id FROM drug WHERE name LIKE '%ine'");
  EXPECT_EQ(r.rows.size(), 2u);  // codeine, morphine
  r = Run("SELECT id FROM drug WHERE name NOT LIKE '%in%'");
  EXPECT_EQ(r.rows.size(), 1u);  // only "ibuprofen" lacks the substring
}

TEST_F(ExecutorTest, InPredicate) {
  QueryResult r = Run("SELECT name FROM drug WHERE id IN (0, 4)");
  ASSERT_EQ(r.rows.size(), 2u);
}

TEST_F(ExecutorTest, JoinOnExplicit) {
  QueryResult r = Run(
      "SELECT d.name, i.severity FROM drug d JOIN interaction i ON "
      "d.id = i.drug1");
  EXPECT_EQ(r.rows.size(), 5u);
}

TEST_F(ExecutorTest, JoinWithFilter) {
  QueryResult r = Run(
      "SELECT d.name FROM drug d JOIN interaction i ON d.id = i.drug1 "
      "WHERE i.severity = 'high'");
  ASSERT_EQ(r.rows.size(), 3u);
  std::vector<std::string> names;
  for (const Row& row : r.rows) names.push_back(row[0].AsString());
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names,
            (std::vector<std::string>{"aspirin", "ibuprofen", "morphine"}));
}

TEST_F(ExecutorTest, ThreeWayJoin) {
  // drug1 -> drug, drug2 -> drug (self-join through interaction).
  QueryResult r = Run(
      "SELECT a.name, b.name FROM interaction i JOIN drug a ON i.drug1 = "
      "a.id JOIN drug b ON i.drug2 = b.id WHERE i.severity = 'high'");
  EXPECT_EQ(r.rows.size(), 3u);
}

TEST_F(ExecutorTest, JoinInWhereClauseInsteadOfOn) {
  QueryResult a = Run(
      "SELECT d.name FROM drug d JOIN interaction i ON d.id = i.drug1");
  // Same join expressed in WHERE (comma-join style is not supported, but ON
  // TRUE-like constant plus WHERE equality is equivalent).
  QueryResult b = Run(
      "SELECT d.name FROM drug d JOIN interaction i ON 1 = 1 WHERE "
      "d.id = i.drug1");
  EXPECT_EQ(a.rows.size(), b.rows.size());
}

TEST_F(ExecutorTest, DistinctAndOrderByAndLimit) {
  QueryResult r = Run("SELECT DISTINCT severity FROM interaction");
  EXPECT_EQ(r.rows.size(), 3u);
  r = Run("SELECT name FROM drug ORDER BY weight DESC LIMIT 2");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "warfarin");
  EXPECT_EQ(r.rows[1][0].AsString(), "morphine");
}

TEST_F(ExecutorTest, OrderByQualifiedColumnWithSelectStar) {
  QueryResult r = Run("SELECT * FROM drug ORDER BY drug.id DESC");
  ASSERT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 4);
}

TEST_F(ExecutorTest, ArithmeticProjection) {
  QueryResult r = Run("SELECT weight * 2 AS dbl FROM drug WHERE id = 0");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsDouble(), 200.0);
  EXPECT_EQ(r.column_names[0], "dbl");
}

TEST_F(ExecutorTest, EmptyResult) {
  QueryResult r = Run("SELECT * FROM drug WHERE id = 999");
  EXPECT_TRUE(r.rows.empty());
}

TEST_F(ExecutorTest, ErrorsPropagate) {
  EXPECT_TRUE(db_->Execute("SELECT * FROM nope").status().IsNotFound());
  EXPECT_TRUE(db_->Execute("SELECT missing FROM drug").status().IsNotFound());
  EXPECT_TRUE(db_->Execute("SELECT * FROM drug d JOIN drug d ON 1 = 1")
                  .status()
                  .IsInvalidArgument());  // duplicate alias
  EXPECT_TRUE(db_->Execute("SELECT id FROM drug ORDER BY nosuchcol")
                  .status()
                  .IsNotFound());  // unknown ORDER BY column
  EXPECT_TRUE(db_->Execute("SELECT id FROM drug WHERE nosuchcol = 1")
                  .status()
                  .IsNotFound());  // unknown WHERE column
  EXPECT_TRUE(db_->Execute("SELECT id + nosuchcol FROM drug")
                  .status()
                  .IsNotFound());  // unknown column in a projection
}

TEST_F(ExecutorTest, AmbiguousColumn) {
  Status st = db_->Execute(
                     "SELECT id FROM drug d JOIN interaction i ON "
                     "d.id = i.drug1")
                  .status();
  EXPECT_TRUE(st.IsInvalidArgument()) << st;
}

TEST_F(ExecutorTest, CountersReflectWork) {
  QueryResult r = Run("SELECT * FROM drug WHERE id = 1");
  EXPECT_EQ(r.counters.rows_produced, 1u);
  EXPECT_GE(r.counters.index_lookups, 1u);  // PK index used
  EXPECT_LE(r.counters.rows_scanned, 1u);   // no full scan
}

// Plans with and without secondary indexes must return identical answers.
TEST_F(ExecutorTest, IndexOnOffEquivalence) {
  const std::string queries[] = {
      "SELECT d.name, i.severity FROM drug d JOIN interaction i ON d.id = "
      "i.drug1 WHERE i.severity = 'high'",
      "SELECT * FROM interaction WHERE drug1 = 0",
      "SELECT name FROM drug WHERE weight >= 101 AND weight <= 103",
  };
  for (const std::string& sql : queries) {
    db_->options().enable_secondary_indexes = true;
    db_->options().enable_index_joins = true;
    QueryResult with_idx = Run(sql);
    db_->options().enable_secondary_indexes = false;
    db_->options().enable_index_joins = false;
    QueryResult without_idx = Run(sql);
    auto key = [](const Row& row) {
      std::string k;
      for (const Value& v : row) k += v.ToString() + "|";
      return k;
    };
    std::vector<std::string> a, b;
    for (const Row& row : with_idx.rows) a.push_back(key(row));
    for (const Row& row : without_idx.rows) b.push_back(key(row));
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << sql;
  }
}

// Renders rows as "v1|v2|..." strings, in order.
std::vector<std::string> Render(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  for (const Row& row : rows) {
    std::string k;
    for (const Value& v : row) k += v.ToString() + "|";
    out.push_back(std::move(k));
  }
  return out;
}

// Opens `op` and copies out every row it lends.
std::vector<Row> Drain(PhysOp* op) {
  std::vector<Row> rows;
  EXPECT_TRUE(op->Open().ok());
  while (true) {
    auto row = op->Next();
    EXPECT_TRUE(row.ok()) << row.status();
    if (!row.ok() || *row == nullptr) break;
    rows.push_back(**row);
  }
  return rows;
}

// Operators that lend reused or stored rows, stacked on each other the way
// the planner does not (yet) stack them: every borrowed row must still be
// the right one when its consumer reads it. Each plan runs twice to check
// that Open() resets the lent state.
TEST_F(ExecutorTest, CursorRowsSurviveOperatorStacking) {
  const Table* drug = db_->catalog().GetTable("drug");
  const Table* interaction = db_->catalog().GetTable("interaction");

  // IndexNLJoin whose outer is a Project (a reused output row).
  PhysOpPtr project = std::make_unique<ProjectOp>(
      std::make_unique<SeqScanOp>(drug, "d"),
      std::vector<SelectItem>{{MakeColumn("d.id"), "did"},
                              {MakeColumn("d.name"), "dname"}});
  IndexNestedLoopJoinOp nl(std::move(project), interaction, "i", "did",
                           "drug1", nullptr);
  for (int run = 0; run < 2; ++run) {
    std::vector<std::string> got = Render(Drain(&nl));
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, (std::vector<std::string>{
                       "0|aspirin|0|0|1|low|",
                       "0|aspirin|1|0|4|high|",
                       "1|ibuprofen|2|1|4|high|",
                       "2|codeine|3|2|3|medium|",
                       "3|morphine|4|3|4|high|",
                   }));
  }

  // HashJoin that builds from a Distinct (rows lent from its seen-set).
  PhysOpPtr distinct_drug1 = std::make_unique<DistinctOp>(
      std::make_unique<ProjectOp>(
          std::make_unique<SeqScanOp>(interaction, "i"),
          std::vector<SelectItem>{{MakeColumn("i.drug1"), "d1"}}));
  HashJoinOp hash(std::move(distinct_drug1),
                  std::make_unique<SeqScanOp>(drug, "d"), {"d1"}, {"d.id"});
  for (int run = 0; run < 2; ++run) {
    std::vector<std::string> got = Render(Drain(&hash));
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, (std::vector<std::string>{
                       "0|0|aspirin|nsaid|100.000000|",
                       "1|1|ibuprofen|nsaid|101.000000|",
                       "2|2|codeine|opioid|102.000000|",
                       "3|3|morphine|opioid|103.000000|",
                   }));
  }

  // Limit over a Distinct: first-seen order, cut after two rows.
  LimitOp limit(std::make_unique<DistinctOp>(std::make_unique<ProjectOp>(
                    std::make_unique<SeqScanOp>(drug, "d"),
                    std::vector<SelectItem>{{MakeColumn("d.category"), "c"}})),
                2);
  for (int run = 0; run < 2; ++run) {
    EXPECT_EQ(Render(Drain(&limit)),
              (std::vector<std::string>{"nsaid|", "opioid|"}));
  }
}

// Scan streams rows through a visitor; returning false stops the plan, and
// the counters show the scan stopped short of the table.
TEST_F(ExecutorTest, ScanVisitorStopsPlanEarly) {
  auto stmt = ParseSql("SELECT DISTINCT name FROM drug");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  std::vector<std::string> seen;
  ExecCounters counters;
  Status st = db_->Scan(
      *stmt,
      [&seen](const Row& row) {
        seen.push_back(row[0].AsString());
        return seen.size() < 2;
      },
      &counters);
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_EQ(seen, (std::vector<std::string>{"aspirin", "ibuprofen"}));
  EXPECT_EQ(counters.rows_produced, 2u);
  EXPECT_EQ(counters.rows_scanned, 2u);

  // Run to the end, the visitor sees what ExecuteStatement materializes.
  std::vector<Row> all;
  ASSERT_TRUE(db_->Scan(
                     *stmt,
                     [&all](const Row& row) {
                       all.push_back(row);
                       return true;
                     },
                     nullptr)
                  .ok());
  auto materialized = db_->ExecuteStatement(*stmt);
  ASSERT_TRUE(materialized.ok()) << materialized.status();
  EXPECT_EQ(Render(all), Render(materialized->rows));
  EXPECT_EQ(materialized->counters.rows_scanned, 5u);
}

// An IN-list index scan probes one value at a time: stopped after the first
// row it has made one lookup and lent one row; run to the end, one lookup
// and one row per value, in IN-list order.
TEST_F(ExecutorTest, InListIndexScanProbesLazily) {
  auto stmt = ParseSql("SELECT * FROM drug WHERE id IN (0, 1, 2, 3, 4)");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  ExecCounters first;
  ASSERT_TRUE(db_->Scan(*stmt, [](const Row&) { return false; }, &first).ok());
  EXPECT_EQ(first.rows_produced, 1u);
  EXPECT_EQ(first.index_lookups, 1u);
  EXPECT_EQ(first.rows_scanned, 1u);

  std::vector<int64_t> ids;
  ExecCounters all;
  ASSERT_TRUE(db_->Scan(
                     *stmt,
                     [&ids](const Row& row) {
                       ids.push_back(row[0].AsInt());
                       return true;
                     },
                     &all)
                  .ok());
  EXPECT_EQ(ids, (std::vector<int64_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(all.rows_produced, 5u);
  EXPECT_EQ(all.index_lookups, 5u);
  EXPECT_EQ(all.rows_scanned, 5u);

  // Values without matches cost a lookup each but lend no row.
  QueryResult sparse = Run("SELECT id FROM drug WHERE id IN (9, 3, 8, 1)");
  EXPECT_EQ(Render(sparse.rows), (std::vector<std::string>{"3|", "1|"}));
  EXPECT_EQ(sparse.counters.index_lookups, 4u);
  EXPECT_EQ(sparse.counters.rows_scanned, 2u);
}

}  // namespace
}  // namespace lakefed::rel
