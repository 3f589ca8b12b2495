// Plan-shape tests: verify the planner picks index access paths and join
// algorithms according to the physical design, since that is exactly the
// behaviour the paper's heuristics rely on.

#include "rel/planner.h"

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "rel_test_util.h"

namespace lakefed::rel {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeTestDatabase();
    ASSERT_NE(db_, nullptr);
  }

  std::string Plan(const std::string& sql) {
    auto explain = db_->Explain(sql);
    EXPECT_TRUE(explain.ok()) << sql << "\n" << explain.status();
    return explain.ok() ? *explain : "";
  }

  std::unique_ptr<Database> db_;
};

TEST_F(PlannerTest, PkEqualityUsesIndexScan) {
  std::string plan = Plan("SELECT * FROM drug WHERE id = 3");
  EXPECT_TRUE(Contains(plan, "IndexScan drug")) << plan;
  EXPECT_FALSE(Contains(plan, "SeqScan")) << plan;
}

TEST_F(PlannerTest, UnindexedPredicateUsesSeqScan) {
  std::string plan = Plan("SELECT * FROM drug WHERE name = 'aspirin'");
  EXPECT_TRUE(Contains(plan, "SeqScan drug")) << plan;
  EXPECT_TRUE(Contains(plan, "Filter")) << plan;
}

TEST_F(PlannerTest, SecondaryIndexUsedWhenEnabled) {
  std::string plan = Plan("SELECT * FROM interaction WHERE drug1 = 0");
  EXPECT_TRUE(Contains(plan, "IndexScan interaction")) << plan;
  db_->options().enable_secondary_indexes = false;
  plan = Plan("SELECT * FROM interaction WHERE drug1 = 0");
  EXPECT_TRUE(Contains(plan, "SeqScan interaction")) << plan;
}

TEST_F(PlannerTest, RangePredicateUsesIndexRangeScan) {
  std::string plan = Plan("SELECT * FROM drug WHERE id > 2");
  EXPECT_TRUE(Contains(plan, "IndexScan drug")) << plan;
}

TEST_F(PlannerTest, InPredicateUsesIndexProbes) {
  std::string plan = Plan("SELECT * FROM drug WHERE id IN (1, 3)");
  EXPECT_TRUE(Contains(plan, "IndexScan drug")) << plan;
  EXPECT_TRUE(Contains(plan, "IN (1, 3)")) << plan;
}

TEST_F(PlannerTest, EqualityPreferredOverRange) {
  std::string plan = Plan("SELECT * FROM drug WHERE id > 1 AND id = 3");
  // equality wins the index; range becomes a residual filter
  EXPECT_TRUE(Contains(plan, "id = 3")) << plan;
  EXPECT_TRUE(Contains(plan, "Filter")) << plan;
}

TEST_F(PlannerTest, JoinOnIndexedColumnUsesIndexNestedLoop) {
  std::string plan = Plan(
      "SELECT d.name FROM drug d JOIN interaction i ON d.id = i.drug1 "
      "WHERE d.category = 'opioid'");
  EXPECT_TRUE(Contains(plan, "IndexNLJoin")) << plan;
}

TEST_F(PlannerTest, IndexJoinsDisabledFallsBackToHashJoin) {
  db_->options().enable_index_joins = false;
  std::string plan = Plan(
      "SELECT d.name FROM drug d JOIN interaction i ON d.id = i.drug1");
  EXPECT_TRUE(Contains(plan, "HashJoin")) << plan;
  EXPECT_FALSE(Contains(plan, "IndexNLJoin")) << plan;
}

TEST_F(PlannerTest, CrossJoinWithoutEdgesStillPlans) {
  std::string plan = Plan("SELECT * FROM drug d JOIN interaction i ON 1 = 1");
  EXPECT_TRUE(Contains(plan, "HashJoin")) << plan;
}

TEST_F(PlannerTest, ThreeTableJoinPlansAllTables) {
  std::string plan = Plan(
      "SELECT a.name FROM interaction i JOIN drug a ON i.drug1 = a.id "
      "JOIN drug b ON i.drug2 = b.id");
  EXPECT_TRUE(Contains(plan, "interaction")) << plan;
  // both drug occurrences must appear
  EXPECT_TRUE(Contains(plan, "AS a")) << plan;
  EXPECT_TRUE(Contains(plan, "AS b")) << plan;
}

TEST_F(PlannerTest, ProjectDistinctSortLimitStack) {
  std::string plan = Plan(
      "SELECT DISTINCT name FROM drug ORDER BY name DESC LIMIT 3");
  // order in the explain: Limit > Sort > Distinct > Project
  size_t limit = plan.find("Limit");
  size_t sort = plan.find("Sort");
  size_t distinct = plan.find("Distinct");
  size_t project = plan.find("Project");
  ASSERT_NE(limit, std::string::npos) << plan;
  ASSERT_NE(sort, std::string::npos) << plan;
  ASSERT_NE(distinct, std::string::npos) << plan;
  ASSERT_NE(project, std::string::npos) << plan;
  EXPECT_LT(limit, sort);
  EXPECT_LT(sort, distinct);
  EXPECT_LT(distinct, project);
}

// A NOT NULL primary key in the output makes every row distinct: no
// Distinct operator is planned.
TEST_F(PlannerTest, ProjectedPrimaryKeyElidesDistinct) {
  for (const char* sql : {"SELECT DISTINCT id, name FROM drug",
                          "SELECT DISTINCT * FROM drug",
                          "SELECT DISTINCT d.name, i.id, d.id FROM drug d "
                          "JOIN interaction i ON d.id = i.drug1"}) {
    std::string plan = Plan(sql);
    EXPECT_FALSE(Contains(plan, "Distinct")) << sql << "\n" << plan;
  }
  // The rows are the ones DISTINCT would have kept: one per drug.
  auto rows = db_->Execute("SELECT DISTINCT id, name FROM drug");
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->rows.size(), 5u);
}

TEST_F(PlannerTest, DistinctStaysWithoutProjectedKey) {
  for (const char* sql : {"SELECT DISTINCT name FROM drug",
                          // drug's key is projected, interaction's is not
                          "SELECT DISTINCT d.id, i.severity FROM drug d "
                          "JOIN interaction i ON d.id = i.drug1",
                          // an expression over the key is not the key
                          "SELECT DISTINCT id + 0 AS k FROM drug"}) {
    std::string plan = Plan(sql);
    EXPECT_TRUE(Contains(plan, "Distinct")) << sql << "\n" << plan;
  }
}

// A nullable primary-key column proves nothing: NULL keys are not indexed,
// so two rows may share a NULL key and be otherwise equal.
TEST_F(PlannerTest, NullableKeyKeepsDistinct) {
  auto table = db_->catalog().CreateTable(
      "nk",
      Schema({{"id", ColumnType::kInt64, true},
              {"v", ColumnType::kString, true}}),
      "id");
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_TRUE((*table)->Insert({Value::Null(), Value("same")}).ok());
  ASSERT_TRUE((*table)->Insert({Value::Null(), Value("same")}).ok());
  ASSERT_TRUE((*table)->Insert({Value(int64_t{1}), Value("same")}).ok());
  for (const char* sql :
       {"SELECT DISTINCT id, v FROM nk", "SELECT DISTINCT * FROM nk"}) {
    std::string plan = Plan(sql);
    EXPECT_TRUE(Contains(plan, "Distinct")) << sql << "\n" << plan;
    auto rows = db_->Execute(sql);
    ASSERT_TRUE(rows.ok()) << rows.status();
    EXPECT_EQ(rows->rows.size(), 2u) << sql;
  }
}

TEST_F(PlannerTest, TableWithoutPrimaryKeyKeepsDistinct) {
  auto table = db_->catalog().CreateTable(
      "heap",
      Schema({{"id", ColumnType::kInt64, false},
              {"v", ColumnType::kString, true}}),
      std::nullopt);
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_TRUE((*table)->Insert({Value(int64_t{1}), Value("x")}).ok());
  ASSERT_TRUE((*table)->Insert({Value(int64_t{1}), Value("x")}).ok());
  std::string plan = Plan("SELECT DISTINCT * FROM heap");
  EXPECT_TRUE(Contains(plan, "Distinct")) << plan;
  auto rows = db_->Execute("SELECT DISTINCT id, v FROM heap");
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->rows.size(), 1u);
}

TEST_F(PlannerTest, IndexScansDisabled) {
  db_->options().enable_index_scans = false;
  std::string plan = Plan("SELECT * FROM drug WHERE id = 3");
  EXPECT_TRUE(Contains(plan, "SeqScan")) << plan;
}

}  // namespace
}  // namespace lakefed::rel
