// UNION: parser, expansion, reference evaluator, federated engine.

#include <gtest/gtest.h>

#include "fed_test_util.h"
#include "sparql/eval.h"
#include "sparql/parser.h"

namespace lakefed::sparql {
namespace {

using rdf::Term;

TEST(UnionParserTest, TwoBranches) {
  auto q = ParseSparql(R"(PREFIX ex: <http://ex/>
    SELECT ?x WHERE {
      { ?x a ex:Drug . } UNION { ?x a ex:Compound . }
    })");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->unions.size(), 1u);
  EXPECT_EQ(q->unions[0].branches.size(), 2u);
  EXPECT_TRUE(q->patterns.empty());
}

TEST(UnionParserTest, ThreeBranchesWithFiltersAndOuterPatterns) {
  auto q = ParseSparql(R"(PREFIX ex: <http://ex/>
    SELECT ?x ?n WHERE {
      ?x ex:name ?n .
      { ?x ex:mass ?m . FILTER (?m > 5) }
      UNION { ?x ex:weight ?m . }
      UNION { ?x ex:charge ?m . }
    })");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->unions.size(), 1u);
  EXPECT_EQ(q->unions[0].branches.size(), 3u);
  EXPECT_EQ(q->unions[0].branches[0].filters.size(), 1u);
  EXPECT_EQ(q->patterns.size(), 1u);
}

TEST(UnionParserTest, Errors) {
  // single group without UNION
  EXPECT_TRUE(ParseSparql("SELECT ?x WHERE { { ?x ?p ?o . } }")
                  .status()
                  .IsParseError());
  // empty branch
  EXPECT_TRUE(ParseSparql("SELECT ?x WHERE { { } UNION { ?x ?p ?o . } }")
                  .status()
                  .IsParseError());
  // nested group
  EXPECT_TRUE(
      ParseSparql(
          "SELECT ?x WHERE { { { ?x ?p ?o . } } UNION { ?x ?p ?o . } }")
          .status()
          .IsParseError());
}

TEST(UnionExpansionTest, CombinationsAndModifierStripping) {
  auto q = ParseSparql(R"(PREFIX ex: <http://ex/>
    SELECT DISTINCT ?x WHERE {
      ?x ex:common ?c .
      { ?x ex:a ?v . } UNION { ?x ex:b ?v . }
    } ORDER BY ?x LIMIT 5)");
  ASSERT_TRUE(q.ok()) << q.status();
  auto branches = ExpandUnions(*q);
  ASSERT_EQ(branches.size(), 2u);
  for (const SelectQuery& b : branches) {
    EXPECT_EQ(b.patterns.size(), 2u);  // common + branch pattern
    EXPECT_TRUE(b.unions.empty());
    EXPECT_FALSE(b.distinct);
    EXPECT_TRUE(b.order_by.empty());
    EXPECT_FALSE(b.limit.has_value());
  }
  // no-union queries expand to themselves with modifiers intact
  auto plain = ParseSparql("SELECT DISTINCT ?s WHERE { ?s ?p ?o . } LIMIT 2");
  ASSERT_TRUE(plain.ok());
  auto same = ExpandUnions(*plain);
  ASSERT_EQ(same.size(), 1u);
  EXPECT_TRUE(same[0].distinct);
  EXPECT_EQ(same[0].limit, 2);
}

class UnionEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto iri = [](const std::string& s) { return Term::Iri("http://u/" + s); };
    Term type = Term::Iri(rdf::kRdfType);
    for (int i = 0; i < 4; ++i) {
      Term d = iri("d" + std::to_string(i));
      store_.Add(d, type, iri("Drug"));
      store_.Add(d, iri("label"), Term::Literal("drug" + std::to_string(i)));
    }
    for (int i = 0; i < 3; ++i) {
      Term c = iri("c" + std::to_string(i));
      store_.Add(c, type, iri("Compound"));
      store_.Add(c, iri("label"),
                 Term::Literal("compound" + std::to_string(i)));
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

TEST_F(UnionEvalTest, BagUnionOfBranches) {
  EvalResult r = Run(R"(PREFIX u: <http://u/>
    SELECT ?x WHERE {
      { ?x a u:Drug . } UNION { ?x a u:Compound . }
    })");
  EXPECT_EQ(r.rows.size(), 7u);
}

TEST_F(UnionEvalTest, SharedOuterPattern) {
  EvalResult r = Run(R"(PREFIX u: <http://u/>
    SELECT ?x ?l WHERE {
      ?x u:label ?l .
      { ?x a u:Drug . } UNION { ?x a u:Compound . }
    })");
  EXPECT_EQ(r.rows.size(), 7u);
}

TEST_F(UnionEvalTest, OrderByAndLimitOverMerged) {
  EvalResult r = Run(R"(PREFIX u: <http://u/>
    SELECT ?l WHERE {
      ?x u:label ?l .
      { ?x a u:Drug . } UNION { ?x a u:Compound . }
    } ORDER BY DESC(?l) LIMIT 3)");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0].values[0].value(), "drug3");
  EXPECT_EQ(r.rows[1].values[0].value(), "drug2");
}

TEST_F(UnionEvalTest, DistinctAcrossBranches) {
  // Both branches match drugs -> duplicates collapse under DISTINCT.
  EvalResult dup = Run(R"(PREFIX u: <http://u/>
    SELECT ?x WHERE {
      { ?x a u:Drug . } UNION { ?x u:label ?l . }
    })");
  EXPECT_EQ(dup.rows.size(), 11u);  // 4 + 7
  EvalResult distinct = Run(R"(PREFIX u: <http://u/>
    SELECT DISTINCT ?x WHERE {
      { ?x a u:Drug . } UNION { ?x u:label ?l . }
    })");
  EXPECT_EQ(distinct.rows.size(), 7u);
}

TEST(FederatedUnionTest, MatchesOracle) {
  auto lake = BuildTinyLake(0.05);
  ASSERT_NE(lake, nullptr);
  // Entities linked to a gene symbol from two different datasets.
  const std::string query = R"(
PREFIX db: <http://lslod.example.org/drugbank/vocab#>
PREFIX goa: <http://lslod.example.org/goa/vocab#>
SELECT ?e ?sym WHERE {
  { ?e a db:Drug ; db:target ?sym . }
  UNION { ?e a goa:Annotation ; goa:symbol ?sym . }
})";
  for (fed::PlanMode mode : {fed::PlanMode::kPhysicalDesignUnaware,
                             fed::PlanMode::kPhysicalDesignAware}) {
    fed::PlanOptions options;
    options.mode = mode;
    auto answer = lake->engine->Execute(query, options);
    ASSERT_TRUE(answer.ok()) << answer.status();
    EXPECT_EQ(SerializeAnswers(*answer), OracleAnswers(*lake, query))
        << fed::PlanModeToString(mode);
    EXPECT_GT(answer->rows.size(), 0u);
  }
}

TEST(FederatedUnionTest, ModifiersApplyAfterMerge) {
  auto lake = BuildTinyLake(0.05);
  ASSERT_NE(lake, nullptr);
  const std::string query = R"(
PREFIX db: <http://lslod.example.org/drugbank/vocab#>
PREFIX goa: <http://lslod.example.org/goa/vocab#>
SELECT DISTINCT ?sym WHERE {
  { ?e a db:Drug ; db:target ?sym . }
  UNION { ?e a goa:Annotation ; goa:symbol ?sym . }
} ORDER BY ?sym LIMIT 10)";
  fed::PlanOptions options;
  auto answer = lake->engine->Execute(query, options);
  ASSERT_TRUE(answer.ok()) << answer.status();
  ASSERT_EQ(answer->rows.size(), 10u);
  std::string prev;
  for (const rdf::Binding& row : answer->rows) {
    std::string sym(row.at("sym").value());
    EXPECT_LT(prev, sym);  // strictly ascending (distinct + sorted)
    prev = sym;
  }
  EXPECT_EQ(SerializeAnswers(*answer), OracleAnswers(*lake, query));
}

TEST(FederatedUnionTest, PlanMentionsBranches) {
  auto lake = BuildTinyLake(0.02);
  ASSERT_NE(lake, nullptr);
  fed::PlanOptions options;
  auto plan = lake->engine->Plan(R"(
PREFIX db: <http://lslod.example.org/drugbank/vocab#>
PREFIX goa: <http://lslod.example.org/goa/vocab#>
SELECT ?e WHERE {
  { ?e a db:Drug . } UNION { ?e a goa:Annotation . }
})",
                                 options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(plan->Explain().find("UNION: 2 branch"), std::string::npos)
      << plan->Explain();
}

// The plan of a UNION query covers every branch: EXPLAIN and the session's
// plan text both show one Union whose subtree holds a service leaf of each
// branch's source.
TEST(FederatedUnionTest, PlanShowsEveryBranchUnderOneUnion) {
  auto lake = BuildTinyLake(0.02);
  ASSERT_NE(lake, nullptr);
  const std::string query = R"(
PREFIX db: <http://lslod.example.org/drugbank/vocab#>
PREFIX goa: <http://lslod.example.org/goa/vocab#>
SELECT ?e WHERE {
  { ?e a db:Drug . } UNION { ?e a goa:Annotation . }
})";
  fed::PlanOptions options;
  auto plan = lake->engine->Plan(query, options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto stream =
      lake->engine->CreateSession(fed::QueryRequest::Text(query, options));
  ASSERT_TRUE(stream.ok()) << stream.status();
  for (const std::string& text : {plan->Explain(), (*stream)->plan_text()}) {
    const size_t union_pos = text.find("Union (2 branches)");
    ASSERT_NE(union_pos, std::string::npos) << text;
    EXPECT_EQ(text.find("Union (2 branches)", union_pos + 1),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("Service[drugbank]", union_pos), std::string::npos)
        << text;
    EXPECT_NE(text.find("Service[goa]", union_pos), std::string::npos)
        << text;
  }
  ASSERT_TRUE((*stream)->Drain().ok());
}

}  // namespace
}  // namespace lakefed::sparql
