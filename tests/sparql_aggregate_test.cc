// SPARQL aggregates (COUNT/SUM/MIN/MAX/AVG, GROUP BY): parser, reference
// evaluator, and federated engine (aggregation at the mediator).

#include <gtest/gtest.h>

#include "fed_test_util.h"
#include "sparql/aggregate.h"
#include "sparql/eval.h"
#include "sparql/parser.h"

namespace lakefed::sparql {
namespace {

using rdf::Term;

TEST(AggregateParserTest, Forms) {
  auto q = ParseSparql(R"(PREFIX ex: <http://ex/>
    SELECT ?cat (COUNT(*) AS ?n) (AVG(?w) AS ?mean) WHERE {
      ?d ex:category ?cat ; ex:weight ?w .
    } GROUP BY ?cat ORDER BY DESC(?n))");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->aggregates.size(), 2u);
  EXPECT_EQ(q->aggregates[0].func, SelectAggregate::Func::kCount);
  EXPECT_TRUE(q->aggregates[0].var.empty());
  EXPECT_EQ(q->aggregates[0].alias, "n");
  EXPECT_EQ(q->aggregates[1].func, SelectAggregate::Func::kAvg);
  EXPECT_EQ(q->aggregates[1].var, "w");
  EXPECT_EQ(q->group_by, (std::vector<std::string>{"cat"}));
  EXPECT_EQ(q->EffectiveProjection(),
            (std::vector<std::string>{"cat", "n", "mean"}));
}

TEST(AggregateParserTest, CountDistinct) {
  auto q = ParseSparql(R"(PREFIX ex: <http://ex/>
    SELECT (COUNT(DISTINCT ?c) AS ?n) WHERE { ?d ex:category ?c . })");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(q->aggregates[0].distinct);
}

TEST(AggregateParserTest, Errors) {
  // bare variable not in GROUP BY
  EXPECT_TRUE(ParseSparql(R"(PREFIX ex: <http://ex/>
    SELECT ?d (COUNT(*) AS ?n) WHERE { ?d ex:p ?o . })")
                  .status()
                  .IsParseError());
  // GROUP BY without aggregates
  EXPECT_TRUE(ParseSparql(R"(PREFIX ex: <http://ex/>
    SELECT ?d WHERE { ?d ex:p ?o . } GROUP BY ?d)")
                  .status()
                  .IsParseError());
  // '*' in SUM
  EXPECT_TRUE(ParseSparql(
                  "SELECT (SUM(*) AS ?s) WHERE { ?a ?b ?c . }")
                  .status()
                  .IsParseError());
  // alias collides with pattern variable
  EXPECT_TRUE(ParseSparql(
                  "SELECT (COUNT(?b) AS ?c) WHERE { ?a ?b ?c . }")
                  .status()
                  .IsParseError());
  // aggregated variable not in pattern
  EXPECT_TRUE(ParseSparql(
                  "SELECT (SUM(?zz) AS ?s) WHERE { ?a ?b ?c . }")
                  .status()
                  .IsParseError());
  // ToString round trip
  auto q = ParseSparql(R"(PREFIX ex: <http://ex/>
    SELECT ?cat (MAX(?w) AS ?m) WHERE { ?d ex:category ?cat ;
      ex:weight ?w . } GROUP BY ?cat)");
  ASSERT_TRUE(q.ok());
  auto q2 = ParseSparql(q->ToString());
  ASSERT_TRUE(q2.ok()) << q2.status() << "\n" << q->ToString();
  EXPECT_EQ(q->ToString(), q2->ToString());
}

class AggregateEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto iri = [](const std::string& s) { return Term::Iri("http://a/" + s); };
    Term type = Term::Iri(rdf::kRdfType);
    // 6 drugs: categories x(4), y(2); weights 10,20,30,40 / 100,200.
    const char* cats[] = {"x", "x", "x", "x", "y", "y"};
    const int weights[] = {10, 20, 30, 40, 100, 200};
    for (int i = 0; i < 6; ++i) {
      Term d = iri("d" + std::to_string(i));
      store_.Add(d, type, iri("Drug"));
      store_.Add(d, iri("cat"), Term::Literal(cats[i]));
      store_.Add(d, iri("weight"),
                 Term::Literal(std::to_string(weights[i]), rdf::kXsdInteger));
    }
    // one drug without weight
    Term d = iri("d6");
    store_.Add(d, type, iri("Drug"));
    store_.Add(d, iri("cat"), Term::Literal("y"));
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

TEST_F(AggregateEvalTest, GlobalCount) {
  EvalResult r = Run(R"(PREFIX a: <http://a/>
    SELECT (COUNT(*) AS ?n) WHERE { ?d a a:Drug . })");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].values[0].value(), "7");
}

TEST_F(AggregateEvalTest, GroupByWithSeveralAggregates) {
  EvalResult r = Run(R"(PREFIX a: <http://a/>
    SELECT ?c (COUNT(*) AS ?n) (SUM(?w) AS ?s) (MIN(?w) AS ?lo)
           (MAX(?w) AS ?hi) (AVG(?w) AS ?mean) WHERE {
      ?d a:cat ?c .
      OPTIONAL { ?d a:weight ?w . }
    } GROUP BY ?c ORDER BY ?c)");
  ASSERT_EQ(r.rows.size(), 2u);
  // group x: n=4, sum=100, min=10, max=40, avg=25
  EXPECT_EQ(r.rows[0].values[0].value(), "x");
  EXPECT_EQ(r.rows[0].values[1].value(), "4");
  EXPECT_EQ(std::stod(std::string(r.rows[0].values[2].value())), 100.0);
  EXPECT_EQ(r.rows[0].values[3].value(), "10");
  EXPECT_EQ(r.rows[0].values[4].value(), "40");
  EXPECT_EQ(std::stod(std::string(r.rows[0].values[5].value())), 25.0);
  // group y: n=3 (one weightless drug counted), sum=300
  EXPECT_EQ(r.rows[1].values[0].value(), "y");
  EXPECT_EQ(r.rows[1].values[1].value(), "3");
  EXPECT_EQ(std::stod(std::string(r.rows[1].values[2].value())), 300.0);
}

TEST_F(AggregateEvalTest, CountDistinct) {
  EvalResult r = Run(R"(PREFIX a: <http://a/>
    SELECT (COUNT(DISTINCT ?c) AS ?n) WHERE { ?d a:cat ?c . })");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].values[0].value(), "2");
}

TEST_F(AggregateEvalTest, EmptyInputGlobalGroup) {
  EvalResult r = Run(R"(PREFIX a: <http://a/>
    SELECT (COUNT(*) AS ?n) (SUM(?w) AS ?s) WHERE {
      ?d a <http://a/Nothing> ; a:weight ?w . })");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].values[0].value(), "0");
  // SUM over nothing is unbound (empty term)
  EXPECT_TRUE(r.rows[0].values[1].value().empty());
}

TEST_F(AggregateEvalTest, SumOverNonNumericIsUnbound) {
  EvalResult r = Run(R"(PREFIX a: <http://a/>
    SELECT (SUM(?c) AS ?s) WHERE { ?d a:cat ?c . })");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_TRUE(r.rows[0].values[0].value().empty());
}

TEST_F(AggregateEvalTest, OrderByAggregateAliasWithLimit) {
  EvalResult r = Run(R"(PREFIX a: <http://a/>
    SELECT ?c (COUNT(*) AS ?n) WHERE { ?d a:cat ?c . }
    GROUP BY ?c ORDER BY DESC(?n) LIMIT 1)");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].values[0].value(), "x");
  EXPECT_EQ(r.rows[0].values[1].value(), "4");
}

TEST(FederatedAggregateTest, MatchesOracle) {
  auto lake = BuildTinyLake(0.05);
  ASSERT_NE(lake, nullptr);
  const std::string queries[] = {
      // drugs per category across the lake
      R"(PREFIX db: <http://lslod.example.org/drugbank/vocab#>
SELECT ?c (COUNT(*) AS ?n) WHERE {
  ?d a db:Drug ; db:category ?c .
} GROUP BY ?c ORDER BY ?c)",
      // global statistics over a federated join
      R"(PREFIX dsv: <http://lslod.example.org/diseasome/vocab#>
PREFIX tcga: <http://lslod.example.org/tcga/vocab#>
SELECT (COUNT(*) AS ?n) (AVG(?v) AS ?mean) (MAX(?v) AS ?top) WHERE {
  ?g a dsv:Gene ; dsv:geneSymbol ?sym .
  ?e a tcga:Expression ; tcga:gene ?sym ; tcga:value ?v .
})",
      // distinct count
      R"(PREFIX tcga: <http://lslod.example.org/tcga/vocab#>
SELECT (COUNT(DISTINCT ?p) AS ?patients) WHERE {
  ?e a tcga:Expression ; tcga:patient ?p .
})",
  };
  for (const std::string& query : queries) {
    SCOPED_TRACE(query);
    for (fed::PlanMode mode : {fed::PlanMode::kPhysicalDesignUnaware,
                               fed::PlanMode::kPhysicalDesignAware}) {
      fed::PlanOptions options;
      options.mode = mode;
      auto answer = lake->engine->Execute(query, options);
      ASSERT_TRUE(answer.ok()) << answer.status();
      EXPECT_EQ(SerializeAnswers(*answer), OracleAnswers(*lake, query));
      EXPECT_NE(answer->plan_text.find("EngineAggregate"),
                std::string::npos);
    }
  }
}

TEST(FederatedAggregateTest, AggregateOverUnion) {
  auto lake = BuildTinyLake(0.05);
  ASSERT_NE(lake, nullptr);
  const std::string query = R"(
PREFIX db: <http://lslod.example.org/drugbank/vocab#>
PREFIX goa: <http://lslod.example.org/goa/vocab#>
SELECT (COUNT(*) AS ?n) WHERE {
  { ?e a db:Drug ; db:target ?sym . }
  UNION { ?e a goa:Annotation ; goa:symbol ?sym . }
})";
  fed::PlanOptions options;
  auto answer = lake->engine->Execute(query, options);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(SerializeAnswers(*answer), OracleAnswers(*lake, query));
}

}  // namespace
}  // namespace lakefed::sparql
