// OPTIONAL and ORDER BY: parser, reference evaluator, and federated engine
// (compared against the oracle).

#include <gtest/gtest.h>

#include "fed_test_util.h"
#include "sparql/eval.h"
#include "sparql/parser.h"

namespace lakefed::sparql {
namespace {

using rdf::Term;

// --- parser -----------------------------------------------------------------

TEST(OptionalParserTest, ParsesGroup) {
  auto q = ParseSparql(R"(PREFIX ex: <http://ex/>
    SELECT ?d ?n ?w WHERE {
      ?d ex:name ?n .
      OPTIONAL { ?d ex:weight ?w . FILTER (?w > 10) }
    })");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->optionals.size(), 1u);
  EXPECT_EQ(q->optionals[0].patterns.size(), 1u);
  EXPECT_EQ(q->optionals[0].filters.size(), 1u);
  // optional variables are part of the pattern variables
  EXPECT_EQ(q->PatternVariables(),
            (std::vector<std::string>{"d", "n", "w"}));
}

TEST(OptionalParserTest, Errors) {
  EXPECT_TRUE(ParseSparql("SELECT ?s WHERE { ?s ?p ?o . OPTIONAL { } }")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(ParseSparql(
                  "SELECT ?s WHERE { ?s ?p ?o . OPTIONAL { OPTIONAL { ?s "
                  "?q ?r . } } }")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(ParseSparql("SELECT ?s WHERE { ?s ?p ?o . OPTIONAL { ?s ?q ")
                  .status()
                  .IsParseError());
}

TEST(OrderByParserTest, Forms) {
  auto q = ParseSparql(
      "SELECT ?s ?o WHERE { ?s ?p ?o . } ORDER BY DESC(?o) ?s LIMIT 4");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->order_by.size(), 2u);
  EXPECT_FALSE(q->order_by[0].ascending);
  EXPECT_EQ(q->order_by[0].variable, "o");
  EXPECT_TRUE(q->order_by[1].ascending);
  EXPECT_EQ(q->limit, 4);
}

TEST(OrderByParserTest, Errors) {
  EXPECT_TRUE(ParseSparql("SELECT ?s WHERE { ?s ?p ?o . } ORDER BY")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(ParseSparql("SELECT ?s WHERE { ?s ?p ?o . } ORDER ?s")
                  .status()
                  .IsParseError());
  // unknown variable
  EXPECT_TRUE(ParseSparql("SELECT ?s WHERE { ?s ?p ?o . } ORDER BY ?zzz")
                  .status()
                  .IsParseError());
}

TEST(OptionalParserTest, ToStringReparses) {
  auto q = ParseSparql(R"(PREFIX ex: <http://ex/>
    SELECT ?d WHERE {
      ?d ex:name ?n .
      OPTIONAL { ?d ex:weight ?w . }
    } ORDER BY DESC(?n) LIMIT 3)");
  ASSERT_TRUE(q.ok()) << q.status();
  auto q2 = ParseSparql(q->ToString());
  ASSERT_TRUE(q2.ok()) << q2.status() << "\n" << q->ToString();
  EXPECT_EQ(q->ToString(), q2->ToString());
}

// --- reference evaluator ----------------------------------------------------

class OptionalEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto iri = [](const std::string& s) { return Term::Iri("http://e/" + s); };
    for (int i = 0; i < 6; ++i) {
      Term d = iri("d" + std::to_string(i));
      store_.Add(d, Term::Iri(rdf::kRdfType), iri("Drug"));
      store_.Add(d, iri("name"), Term::Literal("n" + std::to_string(i)));
      if (i % 2 == 0) {  // only even drugs have a weight
        store_.Add(d, iri("weight"),
                   Term::Literal(std::to_string(i * 100), rdf::kXsdInteger));
      }
    }
  }

  EvalResult Run(const std::string& text) {
    auto q = ParseSparql(text);
    EXPECT_TRUE(q.ok()) << q.status();
    auto r = Evaluate(*q, store_);
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() ? std::move(*r) : EvalResult{};
  }

  rdf::TripleStore store_;
};

TEST_F(OptionalEvalTest, KeepsUnmatchedSolutions) {
  EvalResult r = Run(R"(PREFIX e: <http://e/>
    SELECT ?d ?w WHERE {
      ?d a e:Drug .
      OPTIONAL { ?d e:weight ?w . }
    })");
  EXPECT_EQ(r.rows.size(), 6u);
  int bound = 0;
  for (const SolutionRow& row : r.rows) {
    if (!row.values[1].value().empty()) ++bound;
  }
  EXPECT_EQ(bound, 3);  // d0, d2, d4
}

TEST_F(OptionalEvalTest, GroupFilterOnlyRejectsExtensions) {
  EvalResult r = Run(R"(PREFIX e: <http://e/>
    SELECT ?d ?w WHERE {
      ?d a e:Drug .
      OPTIONAL { ?d e:weight ?w . FILTER (?w >= 200) }
    })");
  // all 6 drugs survive; only d2 (200) and d4 (400) carry a weight
  EXPECT_EQ(r.rows.size(), 6u);
  int bound = 0;
  for (const SolutionRow& row : r.rows) {
    if (!row.values[1].value().empty()) ++bound;
  }
  EXPECT_EQ(bound, 2);
}

TEST_F(OptionalEvalTest, TopLevelFilterAppliesAfterOptional) {
  EvalResult r = Run(R"(PREFIX e: <http://e/>
    SELECT ?d ?w WHERE {
      ?d a e:Drug .
      OPTIONAL { ?d e:weight ?w . }
      FILTER (?w >= 200)
    })");
  // Unbound ?w makes the filter error -> those solutions are dropped.
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(OptionalEvalTest, OrderByNumericAscendingDescending) {
  EvalResult asc = Run(R"(PREFIX e: <http://e/>
    SELECT ?w WHERE { ?d e:weight ?w . } ORDER BY ?w)");
  ASSERT_EQ(asc.rows.size(), 3u);
  EXPECT_EQ(asc.rows[0].values[0].value(), "0");
  EXPECT_EQ(asc.rows[2].values[0].value(), "400");
  EvalResult desc = Run(R"(PREFIX e: <http://e/>
    SELECT ?w WHERE { ?d e:weight ?w . } ORDER BY DESC(?w))");
  EXPECT_EQ(desc.rows[0].values[0].value(), "400");
}

TEST_F(OptionalEvalTest, OrderByWithLimitTakesSmallest) {
  EvalResult r = Run(R"(PREFIX e: <http://e/>
    SELECT ?n WHERE { ?d e:name ?n . } ORDER BY DESC(?n) LIMIT 2)");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0].values[0].value(), "n5");
  EXPECT_EQ(r.rows[1].values[0].value(), "n4");
}

TEST_F(OptionalEvalTest, UnboundSortsFirst) {
  EvalResult r = Run(R"(PREFIX e: <http://e/>
    SELECT ?d ?w WHERE {
      ?d a e:Drug .
      OPTIONAL { ?d e:weight ?w . }
    } ORDER BY ?w)");
  ASSERT_EQ(r.rows.size(), 6u);
  EXPECT_TRUE(r.rows[0].values[1].value().empty());
  EXPECT_TRUE(r.rows[2].values[1].value().empty());
  EXPECT_EQ(r.rows[5].values[1].value(), "400");
}

// --- federated engine -------------------------------------------------------

TEST(FederatedOptionalTest, MatchesOracle) {
  auto lake = BuildTinyLake(0.05);
  ASSERT_NE(lake, nullptr);
  // Drugs with their (optional) interactions; not every drug interacts.
  const std::string query = R"(
PREFIX db: <http://lslod.example.org/drugbank/vocab#>
SELECT ?drug ?other WHERE {
  ?drug a db:Drug ; db:name ?name .
  OPTIONAL { ?drug db:interactsWith ?other . }
})";
  for (fed::PlanMode mode : {fed::PlanMode::kPhysicalDesignUnaware,
                             fed::PlanMode::kPhysicalDesignAware}) {
    fed::PlanOptions options;
    options.mode = mode;
    auto answer = lake->engine->Execute(query, options);
    ASSERT_TRUE(answer.ok()) << answer.status();
    EXPECT_EQ(SerializeAnswers(*answer), OracleAnswers(*lake, query))
        << fed::PlanModeToString(mode);
    // Some rows must lack ?other (drugs without interactions exist).
    bool has_unbound = false;
    for (const rdf::Binding& row : answer->rows) {
      if (row.count("other") == 0) has_unbound = true;
    }
    EXPECT_TRUE(has_unbound);
  }
}

TEST(FederatedOptionalTest, CrossSourceOptional) {
  auto lake = BuildTinyLake(0.05);
  ASSERT_NE(lake, nullptr);
  // Genes with optional probesets from another source.
  const std::string query = R"(
PREFIX dsv: <http://lslod.example.org/diseasome/vocab#>
PREFIX affy: <http://lslod.example.org/affymetrix/vocab#>
SELECT ?g ?probe WHERE {
  ?g a dsv:Gene ; dsv:geneSymbol ?sym .
  OPTIONAL { ?probe a affy:Probeset ; affy:symbol ?sym . }
})";
  fed::PlanOptions options;
  auto answer = lake->engine->Execute(query, options);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(SerializeAnswers(*answer), OracleAnswers(*lake, query));
}

TEST(FederatedOrderByTest, MatchesOracleOrdering) {
  auto lake = BuildTinyLake(0.05);
  ASSERT_NE(lake, nullptr);
  const std::string query = R"(
PREFIX tcga: <http://lslod.example.org/tcga/vocab#>
SELECT ?p ?v WHERE {
  ?e a tcga:Expression ; tcga:patient ?p ; tcga:value ?v .
} ORDER BY DESC(?v) LIMIT 5)";
  fed::PlanOptions options;
  auto answer = lake->engine->Execute(query, options);
  ASSERT_TRUE(answer.ok()) << answer.status();
  ASSERT_EQ(answer->rows.size(), 5u);
  // Values strictly non-increasing; order-sensitive comparison vs oracle.
  double prev = 1e300;
  for (const rdf::Binding& row : answer->rows) {
    double v = std::stod(std::string(row.at("v").value()));
    EXPECT_LE(v, prev);
    prev = v;
  }
  auto oracle = OracleAnswers(*lake, query);
  std::vector<std::string> got;
  for (const rdf::Binding& row : answer->rows) {
    got.push_back(row.at("p").ToString() + "|" + row.at("v").ToString() +
                  "|");
  }
  std::vector<std::string> got_sorted = got;
  std::sort(got_sorted.begin(), got_sorted.end());
  EXPECT_EQ(got_sorted, oracle);  // same top-5 set
}

TEST(FederatedOptionalTest, PlanShowsLeftJoinAndOrderBy) {
  auto lake = BuildTinyLake(0.02);
  ASSERT_NE(lake, nullptr);
  const std::string query = R"(
PREFIX db: <http://lslod.example.org/drugbank/vocab#>
SELECT ?drug ?other WHERE {
  ?drug a db:Drug ; db:name ?name .
  OPTIONAL { ?drug db:interactsWith ?other . }
} ORDER BY ?name)";
  fed::PlanOptions options;
  auto plan = lake->engine->Plan(query, options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  std::string text = plan->Explain();
  EXPECT_NE(text.find("LeftJoin (OPTIONAL)"), std::string::npos) << text;
  EXPECT_NE(text.find("OrderBy ?name"), std::string::npos) << text;
}

}  // namespace
}  // namespace lakefed::sparql
