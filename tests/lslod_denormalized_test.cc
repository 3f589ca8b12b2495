// Non-normalized tables (the paper's future work): the denormalized lake
// must expose the same virtual RDF graph — every benchmark query returns
// identical answers — while the physical layout is 1NF.

#include <gtest/gtest.h>

#include "fed_test_util.h"
#include "lslod/queries.h"
#include "lslod/vocab.h"
#include "wrapper/sql_wrapper.h"

namespace lakefed::lslod {
namespace {

std::unique_ptr<DataLake> BuildDenormalized(double scale) {
  LakeConfig config;
  config.scale = scale;
  config.denormalized = true;
  auto lake = BuildLake(config);
  return lake.ok() ? std::move(*lake) : nullptr;
}

TEST(DenormalizedLakeTest, FlatTablesReplaceSideTables) {
  auto lake = BuildDenormalized(0.05);
  ASSERT_NE(lake, nullptr);
  const rel::Catalog& diseasome = lake->databases.at(kDiseasome)->catalog();
  EXPECT_NE(diseasome.GetTable("disease_flat"), nullptr);
  EXPECT_EQ(diseasome.GetTable("disease"), nullptr);
  EXPECT_EQ(diseasome.GetTable("disease_gene"), nullptr);
  const rel::Catalog& drugbank = lake->databases.at(kDrugbank)->catalog();
  EXPECT_NE(drugbank.GetTable("drug_flat"), nullptr);
  EXPECT_EQ(drugbank.GetTable("drug_category"), nullptr);
}

TEST(DenormalizedLakeTest, SubjectKeyIsNonUniqueButIndexed) {
  auto lake = BuildDenormalized(0.05);
  ASSERT_NE(lake, nullptr);
  const rel::Table* flat =
      lake->databases.at(kDiseasome)->catalog().GetTable("disease_flat");
  ASSERT_NE(flat, nullptr);
  // More rows than diseases (duplication) and an index on the subject key.
  EXPECT_GT(flat->num_rows(), 0u);
  EXPECT_EQ(*flat->primary_key(), "row_id");
  EXPECT_TRUE(flat->HasIndexOn("id"));
  auto id_col = flat->schema().FindColumn("id");
  ASSERT_TRUE(id_col.has_value());
  // id is genuinely non-unique (some disease has >1 gene).
  EXPECT_LT(flat->column_stats(*id_col).num_distinct, flat->num_rows());
}

TEST(DenormalizedLakeTest, AnswersMatchNormalizedLake) {
  auto normalized = BuildTinyLake(0.05);
  auto denormalized = BuildDenormalized(0.05);
  ASSERT_NE(normalized, nullptr);
  ASSERT_NE(denormalized, nullptr);
  fed::PlanOptions options;
  for (const BenchmarkQuery& q : BenchmarkQueries()) {
    auto a = normalized->engine->Execute(q.sparql, options);
    auto b = denormalized->engine->Execute(q.sparql, options);
    ASSERT_TRUE(a.ok()) << q.id << ": " << a.status();
    ASSERT_TRUE(b.ok()) << q.id << ": " << b.status();
    EXPECT_EQ(SerializeAnswers(*a), SerializeAnswers(*b)) << q.id;
  }
  // Q5's Diseasome leaf is the single-table disease star. Over the 3NF
  // `disease` table its SQL projects the primary key, so `rel` plans no
  // Distinct; over `disease_flat` (keyed by row_id, one row per disease and
  // gene) the Distinct must stay and the answers must still be the oracle's.
  const std::string& q5 = FindQuery("Q5")->sparql;
  for (fed::PlanMode mode : {fed::PlanMode::kPhysicalDesignUnaware,
                             fed::PlanMode::kPhysicalDesignAware}) {
    options.mode = mode;
    for (const DataLake* lake : {normalized.get(), denormalized.get()}) {
      bool flat = lake == denormalized.get();
      SCOPED_TRACE(std::string(flat ? "denormalized " : "normalized ") +
                   fed::PlanModeToString(mode));
      auto answer = lake->engine->Execute(q5, options);
      ASSERT_TRUE(answer.ok()) << answer.status();
      EXPECT_EQ(SerializeAnswers(*answer), OracleAnswers(*lake, q5));
      const auto* wrapper = dynamic_cast<const wrapper::SqlWrapper*>(
          lake->engine->wrapper(kDiseasome));
      ASSERT_NE(wrapper, nullptr);
      std::string sql = wrapper->last_sql();
      EXPECT_NE(sql.find(flat ? "FROM disease_flat" : "FROM disease AS"),
                std::string::npos)
          << sql;
      auto plan = lake->databases.at(kDiseasome)->Explain(sql);
      ASSERT_TRUE(plan.ok()) << sql << "\n" << plan.status();
      EXPECT_EQ(plan->find("Distinct") != std::string::npos, flat)
          << sql << "\n" << *plan;
    }
  }
}

TEST(DenormalizedLakeTest, AnswersMatchOracleInAllModes) {
  auto lake = BuildDenormalized(0.05);
  ASSERT_NE(lake, nullptr);
  for (fed::PlanMode mode : {fed::PlanMode::kPhysicalDesignUnaware,
                             fed::PlanMode::kPhysicalDesignAware}) {
    fed::PlanOptions options;
    options.mode = mode;
    options.network = net::NetworkProfile::Gamma3();
    options.network.time_scale = 0.001;
    for (const char* id : {"Q2", "Q3", "FIG1"}) {
      const std::string& sparql = FindQuery(id)->sparql;
      auto answer = lake->engine->Execute(sparql, options);
      ASSERT_TRUE(answer.ok()) << id << ": " << answer.status();
      EXPECT_EQ(SerializeAnswers(*answer), OracleAnswers(*lake, sparql))
          << id << " " << fed::PlanModeToString(mode);
    }
  }
}

TEST(DenormalizedLakeTest, H1StillMergesOnIndexedKey) {
  auto lake = BuildDenormalized(0.05);
  ASSERT_NE(lake, nullptr);
  fed::PlanOptions options;  // aware by default
  auto plan = lake->engine->Plan(FindQuery("Q2")->sparql, options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(plan->Explain().find("merged 2 SSQs"), std::string::npos)
      << plan->Explain();
}

}  // namespace
}  // namespace lakefed::lslod
