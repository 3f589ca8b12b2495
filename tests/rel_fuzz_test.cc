// Randomized planner self-consistency: generated SPJ queries must return
// identical answers with every optimization enabled and with all of them
// disabled (index scans, index joins). This is the relational analogue of
// the federated fuzz harness.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "rel/database.h"

namespace lakefed::rel {
namespace {

std::unique_ptr<Database> MakeFuzzDatabase(Rng* rng) {
  auto db = std::make_unique<Database>("fuzz");
  auto a = db->catalog().CreateTable(
      "ta",
      Schema({{"id", ColumnType::kInt64, false},
              {"k", ColumnType::kInt64, true},
              {"s", ColumnType::kString, true},
              {"d", ColumnType::kDouble, true}}),
      "id");
  auto b = db->catalog().CreateTable(
      "tb",
      Schema({{"id", ColumnType::kInt64, false},
              {"a_id", ColumnType::kInt64, true},
              {"tag", ColumnType::kString, true}}),
      "id");
  if (!a.ok() || !b.ok()) return nullptr;
  for (int i = 0; i < 300; ++i) {
    Value k = rng->Bernoulli(0.1) ? Value::Null()
                                  : Value(rng->UniformInt(0, 40));
    Value s = rng->Bernoulli(0.1)
                  ? Value::Null()
                  : Value("s" + std::to_string(rng->UniformInt(0, 25)));
    (void)(*a)->Insert({Value(int64_t{i}), k, s,
                        Value(rng->UniformDouble(0, 100))});
  }
  for (int i = 0; i < 500; ++i) {
    (void)(*b)->Insert(
        {Value(int64_t{i}), Value(rng->UniformInt(0, 299)),
         Value("t" + std::to_string(rng->UniformInt(0, 7)))});
  }
  (void)(*a)->CreateIndex("k");
  (void)(*a)->CreateIndex("s");
  (void)(*b)->CreateIndex("a_id");
  (void)(*b)->CreateIndex("tag");
  return db;
}

std::string RandomPredicate(Rng* rng, const std::string& alias_a,
                            const std::string& alias_b) {
  switch (rng->UniformInt(0, 7)) {
    case 0: return alias_a + ".k = " + std::to_string(rng->UniformInt(0, 40));
    case 1: return alias_a + ".k >= " + std::to_string(rng->UniformInt(0, 40));
    case 2: return alias_a + ".k < " + std::to_string(rng->UniformInt(0, 40));
    case 3:
      return alias_a + ".s = 's" + std::to_string(rng->UniformInt(0, 25)) +
             "'";
    case 4:
      return alias_a + ".s LIKE 's1%'";
    case 5:
      // alias_b equals alias_a in single-table queries; fall back to a
      // predicate that exists on ta then.
      if (alias_b == alias_a) {
        return alias_a + ".d >= " + std::to_string(rng->UniformInt(0, 99));
      }
      return alias_b + ".tag = 't" + std::to_string(rng->UniformInt(0, 7)) +
             "'";
    case 6:
      return alias_a + ".k IN (" + std::to_string(rng->UniformInt(0, 40)) +
             ", " + std::to_string(rng->UniformInt(0, 40)) + ")";
    default:
      return alias_a + ".s IS NOT NULL";
  }
}

std::string RandomQuery(Rng* rng) {
  bool join = rng->Bernoulli(0.7);
  std::string sql = join ? "SELECT x.id, x.k, y.tag FROM ta x JOIN tb y ON "
                           "x.id = y.a_id"
                         : "SELECT x.id, x.k, x.s FROM ta x";
  int preds = static_cast<int>(rng->UniformInt(0, 3));
  for (int i = 0; i < preds; ++i) {
    sql += i == 0 ? " WHERE " : " AND ";
    sql += RandomPredicate(rng, "x", join ? "y" : "x");
  }
  if (rng->Bernoulli(0.3)) sql += " ORDER BY x.id";
  if (rng->Bernoulli(0.2)) sql += " LIMIT 50";
  return sql;
}

std::vector<std::string> Canonical(const QueryResult& result, bool ordered) {
  std::vector<std::string> rows;
  for (const Row& row : result.rows) {
    std::string s;
    for (const Value& v : row) {
      s += v.ToString();
      s.push_back('|');
    }
    rows.push_back(std::move(s));
  }
  if (!ordered) std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(RelFuzzTest, OptimizationsPreserveAnswers) {
  Rng rng(0xfeed);
  auto db = MakeFuzzDatabase(&rng);
  ASSERT_NE(db, nullptr);
  int non_empty = 0;
  for (int i = 0; i < 120; ++i) {
    std::string sql = RandomQuery(&rng);
    SCOPED_TRACE(sql);
    bool ordered = sql.find("ORDER BY") != std::string::npos &&
                   sql.find("LIMIT") == std::string::npos;
    // LIMIT without ORDER BY picks arbitrary rows: compare sizes only.
    bool size_only = sql.find("LIMIT") != std::string::npos &&
                     sql.find("ORDER BY") == std::string::npos;

    db->options() = PlannerOptions{};  // everything on
    auto fast = db->Execute(sql);
    ASSERT_TRUE(fast.ok()) << fast.status();
    db->options().enable_secondary_indexes = false;
    db->options().enable_index_joins = false;
    db->options().enable_index_scans = false;
    auto slow = db->Execute(sql);
    ASSERT_TRUE(slow.ok()) << slow.status();

    if (size_only) {
      ASSERT_EQ(fast->rows.size(), slow->rows.size());
    } else {
      ASSERT_EQ(Canonical(*fast, ordered), Canonical(*slow, ordered));
    }
    if (!fast->rows.empty()) ++non_empty;
  }
  EXPECT_GT(non_empty, 40);  // the generator is not vacuous
}

// A random SELECT DISTINCT over ta, tb or ta ⋈ tb, projecting a random
// subset of the columns (each key half the time) or *. `*distinct_sql`
// gets the statement, `*plain_sql` the same statement without DISTINCT and
// LIMIT, `*limit` the LIMIT (or -1).
void RandomDistinctQuery(Rng* rng, std::string* distinct_sql,
                         std::string* plain_sql, int* limit) {
  const std::vector<std::string> ta_cols = {"x.id", "x.k", "x.s", "x.d"};
  const std::vector<std::string> tb_cols = {"y.id", "y.a_id", "y.tag"};
  std::string from;
  std::vector<std::string> cols;
  switch (rng->UniformInt(0, 3)) {
    case 0:
      from = "ta x";
      cols = ta_cols;
      break;
    case 1:
      from = "tb y";
      cols = tb_cols;
      break;
    case 2:
      from = "ta x JOIN tb y ON x.id = y.a_id";
      cols = ta_cols;
      cols.insert(cols.end(), tb_cols.begin(), tb_cols.end());
      break;
    default:
      from = "tb y JOIN ta x ON y.a_id = x.id";
      cols = tb_cols;
      cols.insert(cols.end(), ta_cols.begin(), ta_cols.end());
      break;
  }
  std::string select;
  if (rng->Bernoulli(0.15)) {
    select = "*";
  } else {
    for (const std::string& col : cols) {
      if (!rng->Bernoulli(0.5)) continue;
      select += (select.empty() ? "" : ", ") + col;
    }
    if (select.empty()) {
      int64_t last = static_cast<int64_t>(cols.size()) - 1;
      select = cols[static_cast<size_t>(rng->UniformInt(0, last))];
    }
  }
  bool has_ta = from.find("ta x") != std::string::npos;
  bool has_tb = from.find("tb y") != std::string::npos;
  std::string rest;
  if (rng->Bernoulli(0.5)) {
    rest += " WHERE ";
    if (has_ta) {
      rest += RandomPredicate(rng, "x", has_tb ? "y" : "x");
    } else {
      rest += "y.tag <= 't" + std::to_string(rng->UniformInt(0, 7)) + "'";
    }
  }
  if (rng->Bernoulli(0.3)) {
    rest += has_ta ? " ORDER BY x.k" : " ORDER BY y.tag";
  }
  *limit = rng->Bernoulli(0.2) ? 30 : -1;
  *plain_sql = "SELECT " + select + " FROM " + from + rest;
  *distinct_sql = "SELECT DISTINCT " + select + " FROM " + from + rest +
                  (*limit >= 0 ? " LIMIT " + std::to_string(*limit) : "");
}

// Whether or not the planner proves DISTINCT a no-op from the primary keys,
// a DISTINCT statement must return exactly a first-seen dedup of the same
// statement without DISTINCT: same rows, same order.
TEST(RelFuzzTest, DistinctMatchesFirstSeenDedup) {
  Rng rng(0xd15c);
  auto db = MakeFuzzDatabase(&rng);
  ASSERT_NE(db, nullptr);
  int elided = 0, kept = 0, deduplicated = 0;
  for (int i = 0; i < 200; ++i) {
    std::string distinct_sql, plain_sql;
    int limit = -1;
    RandomDistinctQuery(&rng, &distinct_sql, &plain_sql, &limit);
    SCOPED_TRACE(distinct_sql);
    for (bool optimized : {true, false}) {
      db->options() = PlannerOptions{};
      if (!optimized) {
        db->options().enable_secondary_indexes = false;
        db->options().enable_index_joins = false;
        db->options().enable_index_scans = false;
      }
      auto distinct = db->Execute(distinct_sql);
      ASSERT_TRUE(distinct.ok()) << distinct.status();
      auto plain = db->Execute(plain_sql);
      ASSERT_TRUE(plain.ok()) << plain.status();
      std::vector<std::string> all = Canonical(*plain, /*ordered=*/true);
      std::vector<std::string> expected;
      std::set<std::string> seen;
      for (const std::string& row : all) {
        if (seen.insert(row).second) expected.push_back(row);
      }
      if (expected.size() < all.size()) ++deduplicated;
      if (limit >= 0 && expected.size() > static_cast<size_t>(limit)) {
        expected.resize(static_cast<size_t>(limit));
      }
      ASSERT_EQ(Canonical(*distinct, /*ordered=*/true), expected)
          << (optimized ? "optimized" : "unoptimized");
      auto plan = db->Explain(distinct_sql);
      ASSERT_TRUE(plan.ok()) << plan.status();
      ++(plan->find("Distinct") == std::string::npos ? elided : kept);
    }
  }
  // Both planner outcomes and real duplicates are exercised.
  EXPECT_GT(elided, 40);
  EXPECT_GT(kept, 40);
  EXPECT_GT(deduplicated, 20);
}

TEST(RelFuzzTest, AggregatesPreservedAcrossOptimizations) {
  Rng rng(0xabcd);
  auto db = MakeFuzzDatabase(&rng);
  ASSERT_NE(db, nullptr);
  const std::string queries[] = {
      "SELECT x.s, COUNT(*) AS n FROM ta x GROUP BY x.s ORDER BY x.s",
      "SELECT y.tag, COUNT(*) AS n, MIN(x.k) AS lo FROM ta x JOIN tb y ON "
      "x.id = y.a_id GROUP BY y.tag ORDER BY y.tag",
      "SELECT COUNT(DISTINCT x.s) AS c, AVG(x.d) AS mean FROM ta x WHERE "
      "x.k >= 10",
  };
  for (const std::string& sql : queries) {
    SCOPED_TRACE(sql);
    db->options() = PlannerOptions{};
    auto fast = db->Execute(sql);
    ASSERT_TRUE(fast.ok()) << fast.status();
    db->options().enable_secondary_indexes = false;
    db->options().enable_index_joins = false;
    db->options().enable_index_scans = false;
    auto slow = db->Execute(sql);
    ASSERT_TRUE(slow.ok()) << slow.status();
    ASSERT_EQ(Canonical(*fast, true), Canonical(*slow, true));
  }
}

}  // namespace
}  // namespace lakefed::rel
