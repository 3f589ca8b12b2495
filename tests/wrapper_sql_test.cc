// SPARQL -> SQL translation and execution tests for the SQL wrapper, using
// the LSLOD diseasome source.

#include "wrapper/sql_wrapper.h"

#include <gtest/gtest.h>

#include <regex>

#include "common/string_util.h"
#include "fed/decomposer.h"
#include "lslod/generator.h"
#include "lslod/vocab.h"
#include "sparql/parser.h"

namespace lakefed::wrapper {
namespace {

class SqlWrapperTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lslod::LakeConfig config;
    config.scale = 0.05;
    auto lake = lslod::BuildLake(config);
    ASSERT_TRUE(lake.ok()) << lake.status();
    lake_ = std::move(*lake);
    wrapper_ = std::make_unique<SqlWrapper>(
        lslod::kDiseasome, lake_->databases.at(lslod::kDiseasome).get(),
        lake_->mappings.at(lslod::kDiseasome));
  }

  // Builds a SubQuery holding all stars of `text` with all filters placed
  // at the source.
  fed::SubQuery MakeSubQuery(const std::string& text) {
    auto query = sparql::ParseSparql(text);
    EXPECT_TRUE(query.ok()) << query.status();
    auto decomposed = fed::Decompose(*query);
    EXPECT_TRUE(decomposed.ok()) << decomposed.status();
    fed::SubQuery sq;
    sq.source_id = lslod::kDiseasome;
    for (fed::StarSubQuery& star : decomposed->stars) {
      for (const sparql::FilterExprPtr& f : star.filters) {
        sq.filters.push_back({f, fed::FilterPlacement::kSource, ""});
      }
      star.filters.clear();
      sq.stars.push_back(std::move(star));
    }
    return sq;
  }

  std::vector<rdf::Binding> Run(const fed::SubQuery& sq) {
    net::DelayChannel channel(net::NetworkProfile::NoDelay(), 1);
    BlockingQueue<rdf::Binding> out(1 << 20);
    fed::WrapperContext ctx;
    ctx.channel = &channel;
    ctx.out = &out;
    Status st = wrapper_->Execute(sq, ctx);
    EXPECT_TRUE(st.ok()) << st;
    out.Close();
    std::vector<rdf::Binding> rows;
    std::vector<rdf::Binding> batch;
    while (out.PopBatch(&batch, 64) > 0) {
      for (rdf::Binding& row : batch) rows.push_back(std::move(row));
    }
    return rows;
  }

  std::unique_ptr<lslod::DataLake> lake_;
  std::unique_ptr<SqlWrapper> wrapper_;
};

const char kGeneStar[] = R"(PREFIX dsv: <http://lslod.example.org/diseasome/vocab#>
SELECT * WHERE { ?g a dsv:Gene ; dsv:geneSymbol ?sym ; dsv:chromosome ?chr . })";

TEST_F(SqlWrapperTest, TranslatesSingleStarToSelect) {
  auto tr = wrapper_->Translate(MakeSubQuery(kGeneStar));
  ASSERT_TRUE(tr.ok()) << tr.status();
  std::string sql = tr->statement.ToString();
  EXPECT_TRUE(Contains(sql, "FROM gene")) << sql;
  EXPECT_TRUE(Contains(sql, "s0.symbol")) << sql;
  EXPECT_TRUE(Contains(sql, "s0.chromosome")) << sql;
  // Subject variable selects the primary key.
  EXPECT_TRUE(Contains(sql, "s0.id")) << sql;
  EXPECT_EQ(tr->variables.size(), 3u);  // chr, g, sym (alphabetical)
}

TEST_F(SqlWrapperTest, ExecutesSingleStar) {
  auto rows = Run(MakeSubQuery(kGeneStar));
  EXPECT_EQ(rows.size(),
            lake_->databases.at(lslod::kDiseasome)
                ->catalog()
                .GetTable("gene")
                ->num_rows());
  // Subjects are IRIs built from the template; objects are literals.
  ASSERT_FALSE(rows.empty());
  EXPECT_TRUE(rows[0].at("g").is_iri());
  EXPECT_TRUE(StartsWith(rows[0].at("g").value(),
                         "http://lslod.example.org/diseasome/gene/"));
  EXPECT_TRUE(rows[0].at("sym").is_literal());
}

// The leaf is one pipeline: when the downstream goes away after the first
// morsel, the relational scan stops there instead of running to the end.
TEST_F(SqlWrapperTest, ClosedDownstreamStopsScanEarly) {
  const size_t table_rows = lake_->databases.at(lslod::kDiseasome)
                                ->catalog()
                                .GetTable("gene")
                                ->num_rows();
  ASSERT_GT(table_rows, 16u);
  net::DelayChannel channel(net::NetworkProfile::NoDelay(), 1);
  BlockingQueue<rdf::Binding> out(1 << 20);
  // The consumer hangs up as soon as the first morsel lands.
  out.AddReadableListener([&out] { out.Close(); });
  fed::WrapperContext ctx;
  ctx.channel = &channel;
  ctx.out = &out;
  ASSERT_TRUE(wrapper_->Execute(MakeSubQuery(kGeneStar), ctx).ok());
  size_t delivered = 0;
  std::vector<rdf::Binding> batch;
  while (size_t n = out.PopBatch(&batch, 64)) delivered += n;
  EXPECT_EQ(delivered, 1u);  // the first morsel is one row
  rel::ExecCounters counters = wrapper_->last_counters();
  EXPECT_GE(counters.rows_scanned, 1u);
  EXPECT_LT(counters.rows_scanned, table_rows);
}

TEST_F(SqlWrapperTest, CancelledTokenStopsScanEarly) {
  const size_t table_rows = lake_->databases.at(lslod::kDiseasome)
                                ->catalog()
                                .GetTable("gene")
                                ->num_rows();
  ASSERT_GT(table_rows, 16u);
  net::DelayChannel channel(net::NetworkProfile::NoDelay(), 1);
  BlockingQueue<rdf::Binding> out(1 << 20);
  CancellationToken token = CancellationToken::Cancellable();
  out.AddReadableListener([token]() mutable { token.Cancel(); });
  fed::WrapperContext ctx;
  ctx.channel = &channel;
  ctx.out = &out;
  ctx.token = token;
  ASSERT_TRUE(wrapper_->Execute(MakeSubQuery(kGeneStar), ctx).ok());
  EXPECT_TRUE(token.IsCancelled());
  rel::ExecCounters counters = wrapper_->last_counters();
  EXPECT_GE(counters.rows_scanned, 1u);
  EXPECT_LT(counters.rows_scanned, table_rows);
}

TEST_F(SqlWrapperTest, ConstantObjectBecomesWhere) {
  auto sq = MakeSubQuery(R"(PREFIX dsv: <http://lslod.example.org/diseasome/vocab#>
    SELECT * WHERE { ?g a dsv:Gene ; dsv:chromosome "chr7" ; dsv:geneSymbol ?sym . })");
  auto tr = wrapper_->Translate(sq);
  ASSERT_TRUE(tr.ok()) << tr.status();
  EXPECT_TRUE(Contains(tr->statement.ToString(), "= 'chr7'"))
      << tr->statement.ToString();
  auto rows = Run(sq);
  for (const rdf::Binding& row : rows) {
    EXPECT_EQ(row.count("g"), 1u);
  }
}

TEST_F(SqlWrapperTest, ConstantSubjectProbesPrimaryKey) {
  auto sq = MakeSubQuery(R"(PREFIX dsv: <http://lslod.example.org/diseasome/vocab#>
    SELECT * WHERE { <http://lslod.example.org/diseasome/gene/3> dsv:geneSymbol ?sym . })");
  auto tr = wrapper_->Translate(sq);
  ASSERT_TRUE(tr.ok()) << tr.status();
  EXPECT_TRUE(Contains(tr->statement.ToString(), "s0.id = 3"))
      << tr->statement.ToString();
  auto rows = Run(sq);
  ASSERT_EQ(rows.size(), 1u);
}

TEST_F(SqlWrapperTest, MultiValuedPredicateJoinsLinkTable) {
  auto sq = MakeSubQuery(R"(PREFIX dsv: <http://lslod.example.org/diseasome/vocab#>
    SELECT * WHERE { ?d a dsv:Disease ; dsv:name ?n ; dsv:associatedGene ?g . })");
  auto tr = wrapper_->Translate(sq);
  ASSERT_TRUE(tr.ok()) << tr.status();
  std::string sql = tr->statement.ToString();
  EXPECT_TRUE(Contains(sql, "JOIN disease_gene")) << sql;
  EXPECT_TRUE(Contains(sql, "disease_id")) << sql;
  auto rows = Run(sq);
  ASSERT_FALSE(rows.empty());
  // ?g decodes as a gene IRI (the FK value through the IRI template).
  EXPECT_TRUE(StartsWith(rows[0].at("g").value(),
                         "http://lslod.example.org/diseasome/gene/"));
}

TEST_F(SqlWrapperTest, MergedStarsBecomeOneSqlJoin) {
  // Heuristic 1's merged sub-query: disease star + gene star on ?g.
  auto sq = MakeSubQuery(R"(PREFIX dsv: <http://lslod.example.org/diseasome/vocab#>
    SELECT * WHERE {
      ?d a dsv:Disease ; dsv:name ?n ; dsv:associatedGene ?g .
      ?g a dsv:Gene ; dsv:geneSymbol ?sym .
    })");
  ASSERT_EQ(sq.stars.size(), 2u);
  auto tr = wrapper_->Translate(sq);
  ASSERT_TRUE(tr.ok()) << tr.status();
  std::string sql = tr->statement.ToString();
  EXPECT_TRUE(Contains(sql, "FROM disease")) << sql;
  EXPECT_TRUE(Contains(sql, "JOIN gene")) << sql;
  // Shared variable produces the join equality.
  EXPECT_TRUE(Contains(sql, "gene_id = s1.id") ||
              Contains(sql, "s1.id = s0l0.gene_id"))
      << sql;
  auto rows = Run(sq);
  ASSERT_FALSE(rows.empty());
  for (const rdf::Binding& row : rows) {
    ASSERT_EQ(row.count("sym"), 1u);
    ASSERT_EQ(row.count("n"), 1u);
  }
}

TEST_F(SqlWrapperTest, PushedComparisonFilterBecomesWhere) {
  auto sq = MakeSubQuery(R"(PREFIX dsv: <http://lslod.example.org/diseasome/vocab#>
    SELECT * WHERE {
      ?g a dsv:Gene ; dsv:geneSymbol ?sym ; dsv:degree ?deg .
      FILTER (?deg >= 40)
    })");
  auto tr = wrapper_->Translate(sq);
  ASSERT_TRUE(tr.ok()) << tr.status();
  EXPECT_TRUE(Contains(tr->statement.ToString(), ">= 40"))
      << tr->statement.ToString();
  EXPECT_TRUE(tr->residual_filters.empty());
  auto rows = Run(sq);
  for (const rdf::Binding& row : rows) {
    EXPECT_GE(std::stoll(std::string(row.at("deg").value())), 40);
  }
}

TEST_F(SqlWrapperTest, PushedStringFunctionsBecomeLike) {
  auto sq = MakeSubQuery(R"(PREFIX dsv: <http://lslod.example.org/diseasome/vocab#>
    SELECT * WHERE {
      ?d a dsv:Disease ; dsv:name ?n .
      FILTER STRSTARTS(?n, "disease00")
    })");
  auto tr = wrapper_->Translate(sq);
  ASSERT_TRUE(tr.ok()) << tr.status();
  EXPECT_TRUE(Contains(tr->statement.ToString(), "LIKE 'disease00%'"))
      << tr->statement.ToString();
  EXPECT_TRUE(tr->residual_filters.empty());
}

TEST_F(SqlWrapperTest, UntranslatableFilterFallsBackToResidual) {
  auto sq = MakeSubQuery(R"(PREFIX dsv: <http://lslod.example.org/diseasome/vocab#>
    SELECT * WHERE {
      ?d a dsv:Disease ; dsv:name ?n .
      FILTER REGEX(?n, "dis(ease)+0")
    })");
  auto tr = wrapper_->Translate(sq);
  ASSERT_TRUE(tr.ok()) << tr.status();
  EXPECT_EQ(tr->residual_filters.size(), 1u);
  // Still filters correctly via wrapper-side evaluation.
  auto rows = Run(sq);
  for (const rdf::Binding& row : rows) {
    EXPECT_TRUE(StartsWith(row.at("n").value(), "disease0"));
  }
}

TEST_F(SqlWrapperTest, RegexMetacharactersNeverBecomeLike) {
  // Regression: REGEX patterns whose core contains metacharacters must not
  // be rewritten to LIKE — LIKE would match `.`/`\.`/`(a|b)` literally and
  // silently change the answer. They stay residual and are evaluated with
  // real regex semantics on the decoded rows.
  for (const std::string& pattern :
       {std::string("disease0.1"), std::string("disease\\.0"),
        std::string("^disease0(01|02)")}) {
    std::string quoted = pattern;
    // Re-escape backslashes for the SPARQL string literal.
    size_t pos = 0;
    while ((pos = quoted.find('\\', pos)) != std::string::npos) {
      quoted.insert(pos, 1, '\\');
      pos += 2;
    }
    auto sq = MakeSubQuery(
        R"(PREFIX dsv: <http://lslod.example.org/diseasome/vocab#>
           SELECT * WHERE {
             ?d a dsv:Disease ; dsv:name ?n .
             FILTER REGEX(?n, ")" + quoted + R"(")
           })");
    auto tr = wrapper_->Translate(sq);
    ASSERT_TRUE(tr.ok()) << tr.status();
    EXPECT_EQ(tr->residual_filters.size(), 1u) << pattern;
    EXPECT_FALSE(Contains(tr->statement.ToString(), "LIKE"))
        << pattern << ": " << tr->statement.ToString();
    // Residual evaluation applies true regex semantics.
    std::regex re(pattern);
    for (const rdf::Binding& row : Run(sq)) {
      EXPECT_TRUE(std::regex_search(std::string(row.at("n").value()), re))
          << pattern << " vs " << row.at("n").value();
    }
  }
}

TEST_F(SqlWrapperTest, AnchoredPlainRegexStillPushedAsLike) {
  // The fix must not over-reject: a metacharacter-free core with anchors
  // is exactly a LIKE pattern and keeps getting pushed.
  auto sq = MakeSubQuery(R"(PREFIX dsv: <http://lslod.example.org/diseasome/vocab#>
    SELECT * WHERE {
      ?d a dsv:Disease ; dsv:name ?n .
      FILTER REGEX(?n, "^disease00")
    })");
  auto tr = wrapper_->Translate(sq);
  ASSERT_TRUE(tr.ok()) << tr.status();
  EXPECT_TRUE(Contains(tr->statement.ToString(), "LIKE 'disease00%'"))
      << tr->statement.ToString();
  EXPECT_TRUE(tr->residual_filters.empty());
}

TEST_F(SqlWrapperTest, BackslashNeedleStaysResidual) {
  // Regression: the LIKE matcher has no escape syntax, so a needle holding
  // a literal backslash cannot be embedded in a pattern — CONTAINS and
  // friends fall back to residual evaluation instead.
  auto sq = MakeSubQuery(R"(PREFIX dsv: <http://lslod.example.org/diseasome/vocab#>
    SELECT * WHERE {
      ?d a dsv:Disease ; dsv:name ?n .
      FILTER CONTAINS(?n, "dis\\ease")
    })");
  auto tr = wrapper_->Translate(sq);
  ASSERT_TRUE(tr.ok()) << tr.status();
  EXPECT_EQ(tr->residual_filters.size(), 1u);
  EXPECT_FALSE(Contains(tr->statement.ToString(), "LIKE"))
      << tr->statement.ToString();
  // No generated name contains a backslash: residual evaluation must
  // filter everything out rather than mis-match.
  EXPECT_TRUE(Run(sq).empty());
}

TEST_F(SqlWrapperTest, LikeWildcardNeedleStaysResidual) {
  auto sq = MakeSubQuery(R"(PREFIX dsv: <http://lslod.example.org/diseasome/vocab#>
    SELECT * WHERE {
      ?d a dsv:Disease ; dsv:name ?n .
      FILTER CONTAINS(?n, "100%")
    })");
  auto tr = wrapper_->Translate(sq);
  ASSERT_TRUE(tr.ok()) << tr.status();
  EXPECT_EQ(tr->residual_filters.size(), 1u);
  EXPECT_FALSE(Contains(tr->statement.ToString(), "LIKE"))
      << tr->statement.ToString();
}

TEST_F(SqlWrapperTest, InstantiationsBecomeInList) {
  fed::SubQuery sq = MakeSubQuery(kGeneStar);
  sq.instantiations["sym"] = {rdf::Term::Literal("GENE0001"),
                              rdf::Term::Literal("GENE0002")};
  auto tr = wrapper_->Translate(sq);
  ASSERT_TRUE(tr.ok()) << tr.status();
  EXPECT_TRUE(Contains(tr->statement.ToString(),
                       "IN ('GENE0001', 'GENE0002')"))
      << tr->statement.ToString();
  auto rows = Run(sq);
  for (const rdf::Binding& row : rows) {
    std::string sym(row.at("sym").value());
    EXPECT_TRUE(sym == "GENE0001" || sym == "GENE0002") << sym;
  }
}

TEST_F(SqlWrapperTest, VariableTypeObjectIsFixedTerm) {
  auto sq = MakeSubQuery(R"(PREFIX dsv: <http://lslod.example.org/diseasome/vocab#>
    SELECT * WHERE { ?g a ?t ; dsv:geneSymbol ?sym . })");
  auto rows = Run(sq);
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows[0].at("t").value(), lslod::GeneClass());
}

TEST_F(SqlWrapperTest, UnknownPredicateErrors) {
  auto sq = MakeSubQuery(R"(PREFIX dsv: <http://lslod.example.org/diseasome/vocab#>
    SELECT * WHERE { ?g a dsv:Gene ; dsv:noSuchPredicate ?x . })");
  auto tr = wrapper_->Translate(sq);
  EXPECT_TRUE(tr.status().IsNotFound()) << tr.status();
}

TEST_F(SqlWrapperTest, MetadataReflectsPhysicalDesign) {
  // gene.symbol got a secondary index from the advisor; gene.id is the PK.
  EXPECT_TRUE(wrapper_->IsSubjectKeyIndexed(lslod::GeneClass()));
  EXPECT_TRUE(wrapper_->IsPredicateAttributeIndexed(
      lslod::GeneClass(), lslod::Vocab(lslod::kDiseasome, "geneSymbol")));
  // degree was not a workload attribute: unindexed.
  EXPECT_FALSE(wrapper_->IsPredicateAttributeIndexed(
      lslod::GeneClass(), lslod::Vocab(lslod::kDiseasome, "degree")));
  EXPECT_TRUE(wrapper_->SupportsJoinPushdown());
}

TEST_F(SqlWrapperTest, CanPushDownJoinChecksTermConstructors) {
  auto sq = MakeSubQuery(R"(PREFIX dsv: <http://lslod.example.org/diseasome/vocab#>
    SELECT * WHERE {
      ?d a dsv:Disease ; dsv:associatedGene ?g .
      ?g a dsv:Gene ; dsv:geneSymbol ?sym .
    })");
  ASSERT_EQ(sq.stars.size(), 2u);
  // ?g: IRI template on both sides -> compatible.
  EXPECT_TRUE(wrapper_->CanPushDownJoin(sq.stars[0], sq.stars[1], "g"));
  // ?sym appears only in the gene star -> not compatible as a merge var
  // between these two stars.
  EXPECT_FALSE(wrapper_->CanPushDownJoin(sq.stars[0], sq.stars[1], "sym"));
}

TEST_F(SqlWrapperTest, MoleculeCardinalitiesMatchTables) {
  auto molecules = wrapper_->Molecules();
  const rel::Catalog& catalog =
      lake_->databases.at(lslod::kDiseasome)->catalog();
  for (const mapping::RdfMt& m : molecules) {
    if (m.class_iri == lslod::GeneClass()) {
      EXPECT_EQ(m.cardinality, catalog.GetTable("gene")->num_rows());
    } else if (m.class_iri == lslod::DiseaseClass()) {
      EXPECT_EQ(m.cardinality, catalog.GetTable("disease")->num_rows());
    }
  }
}

TEST_F(SqlWrapperTest, MoleculesDescribeClasses) {
  auto molecules = wrapper_->Molecules();
  ASSERT_EQ(molecules.size(), 2u);  // Gene, Disease
  bool found_link = false;
  for (const mapping::RdfMt& m : molecules) {
    if (m.class_iri == lslod::DiseaseClass()) {
      auto it = m.links.find(lslod::Vocab(lslod::kDiseasome,
                                          "associatedGene"));
      found_link = it != m.links.end() && it->second == lslod::GeneClass();
    }
  }
  EXPECT_TRUE(found_link);
}

}  // namespace
}  // namespace lakefed::wrapper
