// End-to-end federation tests: execute queries over the LSLOD lake in every
// plan mode and compare against the single-store oracle.

#include "fed/engine.h"

#include <gtest/gtest.h>

#include "fed_test_util.h"
#include "lslod/queries.h"
#include "lslod/vocab.h"
#include "wrapper/sql_wrapper.h"

namespace lakefed::fed {
namespace {

class FedEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lake_ = BuildTinyLake(/*scale=*/0.05);
    ASSERT_NE(lake_, nullptr);
  }

  QueryAnswer Run(const std::string& query, const PlanOptions& options) {
    auto answer = lake_->engine->Execute(query, options);
    EXPECT_TRUE(answer.ok()) << answer.status();
    return answer.ok() ? std::move(*answer) : QueryAnswer{};
  }

  std::unique_ptr<lslod::DataLake> lake_;
};

TEST_F(FedEngineTest, SingleStarMatchesOracle) {
  const std::string query =
      "PREFIX dsv: <http://lslod.example.org/diseasome/vocab#> "
      "SELECT ?d ?n WHERE { ?d a dsv:Disease ; dsv:name ?n . }";
  PlanOptions options;
  QueryAnswer answer = Run(query, options);
  EXPECT_FALSE(answer.rows.empty());
  EXPECT_EQ(SerializeAnswers(answer), OracleAnswers(*lake_, query));
}

TEST_F(FedEngineTest, CrossSourceJoinMatchesOracle) {
  const std::string query =
      "PREFIX dsv: <http://lslod.example.org/diseasome/vocab#> "
      "PREFIX affy: <http://lslod.example.org/affymetrix/vocab#> "
      "SELECT ?g ?sym ?probe WHERE { "
      "?g a dsv:Gene ; dsv:geneSymbol ?sym . "
      "?probe a affy:Probeset ; affy:symbol ?sym . }";
  PlanOptions options;
  QueryAnswer answer = Run(query, options);
  EXPECT_FALSE(answer.rows.empty());
  EXPECT_EQ(SerializeAnswers(answer), OracleAnswers(*lake_, query));
}

// The core soundness property: both QEP families return exactly the same
// answers for every benchmark query, under several networks and toggles.
struct ModeCase {
  PlanMode mode;
  bool h1, h2, dependent;
};

class ModeEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<std::string, ModeCase>> {};

TEST_P(ModeEquivalenceTest, AnswersMatchOracle) {
  auto lake = BuildTinyLake(/*scale=*/0.05);
  ASSERT_NE(lake, nullptr);
  const auto& [query_id, mode_case] = GetParam();
  const lslod::BenchmarkQuery* query = lslod::FindQuery(query_id);
  ASSERT_NE(query, nullptr);

  PlanOptions options;
  options.mode = mode_case.mode;
  options.heuristic1_join_pushdown = mode_case.h1;
  options.heuristic2_filter_placement = mode_case.h2;
  options.use_dependent_join = mode_case.dependent;
  // Slow-profile planning decisions without the actual sleeping: plan with
  // Gamma3's parameters but scale its delays to near zero.
  options.network = net::NetworkProfile::Gamma3();
  options.network.time_scale = 0.001;

  auto answer = lake->engine->Execute(query->sparql, options);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(SerializeAnswers(*answer), OracleAnswers(*lake, query->sparql))
      << query_id << " in mode " << PlanModeToString(mode_case.mode);
}

INSTANTIATE_TEST_SUITE_P(
    AllQueriesAllModes, ModeEquivalenceTest,
    ::testing::Combine(
        ::testing::Values("Q1", "Q2", "Q3", "Q4", "Q5", "FIG1"),
        ::testing::Values(
            ModeCase{PlanMode::kPhysicalDesignUnaware, true, true, false},
            ModeCase{PlanMode::kPhysicalDesignAware, true, true, false},
            ModeCase{PlanMode::kPhysicalDesignAware, false, true, false},
            ModeCase{PlanMode::kPhysicalDesignAware, true, false, false},
            ModeCase{PlanMode::kPhysicalDesignAware, true, true, true})),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);
      const ModeCase& mode_case = std::get<1>(info.param);
      name += mode_case.mode == PlanMode::kPhysicalDesignAware ? "_aware"
                                                               : "_unaware";
      if (!mode_case.h1) name += "_noH1";
      if (!mode_case.h2) name += "_noH2";
      if (mode_case.dependent) name += "_depjoin";
      return name;
    });

// Regression for the REGEX-pushdown semantics fix: patterns with
// metacharacters (`.`, escaped dot, alternation) must produce the same
// answers as the single-store oracle in both plan families — previously a
// LIKE rewrite could match the metacharacters literally at the source.
TEST_F(FedEngineTest, RegexMetacharAnswersMatchOracleInBothModes) {
  const char* kPatterns[] = {"disease0.1", "disease\\\\.0",
                             "^disease0(01|02)"};
  for (const char* pattern : kPatterns) {
    const std::string query =
        "PREFIX dsv: <http://lslod.example.org/diseasome/vocab#> "
        "SELECT ?d ?n WHERE { ?d a dsv:Disease ; dsv:name ?n . "
        "FILTER REGEX(?n, \"" +
        std::string(pattern) + "\") }";
    std::vector<std::string> oracle = OracleAnswers(*lake_, query);
    for (PlanMode mode : {PlanMode::kPhysicalDesignAware,
                          PlanMode::kPhysicalDesignUnaware}) {
      PlanOptions options;
      options.mode = mode;
      QueryAnswer answer = Run(query, options);
      EXPECT_EQ(SerializeAnswers(answer), oracle)
          << pattern << " in mode " << PlanModeToString(mode);
    }
  }
}

TEST_F(FedEngineTest, MixedRdfRelationalLakeMatchesAllRelational) {
  // Serve kegg and goa natively as RDF; answers must not change.
  auto mixed = BuildTinyLake(0.05, {"kegg", "goa"});
  ASSERT_NE(mixed, nullptr);
  const lslod::BenchmarkQuery* q4 = lslod::FindQuery("Q4");
  PlanOptions options;
  auto from_mixed = mixed->engine->Execute(q4->sparql, options);
  ASSERT_TRUE(from_mixed.ok()) << from_mixed.status();
  auto from_rdb = lake_->engine->Execute(q4->sparql, options);
  ASSERT_TRUE(from_rdb.ok()) << from_rdb.status();
  EXPECT_EQ(SerializeAnswers(*from_mixed), SerializeAnswers(*from_rdb));
  EXPECT_FALSE(from_mixed->rows.empty());
}

TEST_F(FedEngineTest, DistinctAndLimitModifiers) {
  const std::string query =
      "PREFIX db: <http://lslod.example.org/drugbank/vocab#> "
      "SELECT DISTINCT ?c WHERE { ?d a db:Drug ; db:category ?c . }";
  PlanOptions options;
  QueryAnswer distinct = Run(query, options);
  EXPECT_LE(distinct.rows.size(), 12u);  // 12 category values
  EXPECT_EQ(SerializeAnswers(distinct), OracleAnswers(*lake_, query));

  QueryAnswer limited = Run(query + " LIMIT 3", options);
  EXPECT_EQ(limited.rows.size(), 3u);
}

TEST_F(FedEngineTest, TraceIsMonotoneAndComplete) {
  PlanOptions options;
  QueryAnswer answer = Run(lslod::FindQuery("Q2")->sparql, options);
  ASSERT_FALSE(answer.rows.empty());
  EXPECT_EQ(answer.trace.num_answers(), answer.rows.size());
  for (size_t i = 1; i < answer.trace.timestamps.size(); ++i) {
    EXPECT_LE(answer.trace.timestamps[i - 1], answer.trace.timestamps[i]);
  }
  EXPECT_GE(answer.trace.completion_seconds,
            answer.trace.timestamps.back());
  EXPECT_EQ(answer.trace.AnswersAt(answer.trace.completion_seconds),
            answer.rows.size());
}

TEST_F(FedEngineTest, OperatorStatsPopulated) {
  PlanOptions options;
  QueryAnswer answer = Run(lslod::FindQuery("Q3")->sparql, options);
  ASSERT_FALSE(answer.operator_runtime.empty());
  // The Project operator's row count equals the final answer count.
  uint64_t project_rows = 0;
  bool saw_service = false;
  for (const obs::OperatorRuntime& op : answer.operator_runtime) {
    if (op.label.rfind("Project", 0) == 0) project_rows = op.rows;
    if (op.label.rfind("Service", 0) == 0) saw_service = true;
  }
  EXPECT_EQ(project_rows, answer.rows.size());
  EXPECT_TRUE(saw_service);
  EXPECT_NE(answer.OperatorStatsText().find("Project"), std::string::npos);
}

TEST_F(FedEngineTest, StatsCountTransfers) {
  PlanOptions options;
  QueryAnswer answer = Run(lslod::FindQuery("Q1")->sparql, options);
  EXPECT_GT(answer.stats.messages_transferred, 0u);
  EXPECT_GE(answer.stats.messages_transferred, answer.rows.size());
}

TEST_F(FedEngineTest, AwareTransfersFewerRowsOnSlowNetworks) {
  // The mechanism behind the paper's claim: under H2-on-slow-network the
  // aware plan ships a filtered intermediate result.
  PlanOptions aware;
  aware.mode = PlanMode::kPhysicalDesignAware;
  aware.network = net::NetworkProfile::Gamma3();
  aware.network.time_scale = 0.001;  // keep the test fast
  PlanOptions unaware = aware;
  unaware.mode = PlanMode::kPhysicalDesignUnaware;
  const std::string& q3 = lslod::FindQuery("Q3")->sparql;
  QueryAnswer aware_answer = Run(q3, aware);
  QueryAnswer unaware_answer = Run(q3, unaware);
  EXPECT_EQ(SerializeAnswers(aware_answer),
            SerializeAnswers(unaware_answer));
  EXPECT_LT(aware_answer.stats.messages_transferred,
            unaware_answer.stats.messages_transferred);
}

TEST_F(FedEngineTest, RegistrationErrors) {
  auto lake = BuildTinyLake(0.02);
  ASSERT_NE(lake, nullptr);
  // Re-registering an existing source id fails.
  auto dup = std::make_unique<wrapper::SqlWrapper>(
      lslod::kChebi, lake->databases.at(lslod::kChebi).get(),
      lake->mappings.at(lslod::kChebi));
  EXPECT_TRUE(
      lake->engine->RegisterSource(std::move(dup)).IsAlreadyExists());
}

TEST_F(FedEngineTest, ParseErrorsPropagate) {
  PlanOptions options;
  EXPECT_TRUE(lake_->engine->Execute("SELECT nonsense", options)
                  .status()
                  .IsParseError());
}

}  // namespace
}  // namespace lakefed::fed
