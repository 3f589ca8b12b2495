#include "wrapper/rdf_wrapper.h"

#include <gtest/gtest.h>

#include "fed/decomposer.h"
#include "sparql/parser.h"

namespace lakefed::wrapper {
namespace {

using rdf::Term;

class RdfWrapperTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto iri = [](const std::string& s) { return Term::Iri("http://k/" + s); };
    Term type = Term::Iri(rdf::kRdfType);
    for (int i = 0; i < 20; ++i) {
      Term c = iri("c" + std::to_string(i));
      store_.Add(c, type, iri("Compound"));
      store_.Add(c, iri("name"), Term::Literal("compound" + std::to_string(i)));
      store_.Add(c, iri("mass"),
                 Term::Literal(std::to_string(100 + i * 10),
                               rdf::kXsdInteger));
    }
    wrapper_ = std::make_unique<RdfWrapper>("kegg", &store_);
  }

  fed::SubQuery MakeSubQuery(const std::string& text,
                             fed::FilterPlacement placement) {
    auto query = sparql::ParseSparql(text);
    EXPECT_TRUE(query.ok()) << query.status();
    auto decomposed = fed::Decompose(*query);
    EXPECT_TRUE(decomposed.ok()) << decomposed.status();
    fed::SubQuery sq;
    sq.source_id = "kegg";
    for (fed::StarSubQuery& star : decomposed->stars) {
      for (const sparql::FilterExprPtr& f : star.filters) {
        sq.filters.push_back({f, placement, ""});
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

  rdf::TripleStore store_;
  std::unique_ptr<RdfWrapper> wrapper_;
};

const char kStar[] = R"(PREFIX k: <http://k/>
SELECT * WHERE { ?c a k:Compound ; k:name ?n ; k:mass ?m . })";

TEST_F(RdfWrapperTest, AnswersStarQuery) {
  auto rows = Run(MakeSubQuery(kStar, fed::FilterPlacement::kSource));
  EXPECT_EQ(rows.size(), 20u);
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows[0].size(), 3u);
}

TEST_F(RdfWrapperTest, SourceFiltersApplied) {
  auto sq = MakeSubQuery(R"(PREFIX k: <http://k/>
    SELECT * WHERE { ?c a k:Compound ; k:mass ?m . FILTER (?m >= 250) })",
                         fed::FilterPlacement::kSource);
  auto rows = Run(sq);
  EXPECT_EQ(rows.size(), 5u);  // masses 250..290
}

TEST_F(RdfWrapperTest, EngineFiltersNotApplied) {
  auto sq = MakeSubQuery(R"(PREFIX k: <http://k/>
    SELECT * WHERE { ?c a k:Compound ; k:mass ?m . FILTER (?m >= 250) })",
                         fed::FilterPlacement::kEngine);
  // Wrapper only evaluates source-placed filters; the full star comes back.
  EXPECT_EQ(Run(sq).size(), 20u);
}

TEST_F(RdfWrapperTest, InstantiationsRestrictResults) {
  fed::SubQuery sq = MakeSubQuery(kStar, fed::FilterPlacement::kSource);
  sq.instantiations["n"] = {Term::Literal("compound3"),
                            Term::Literal("compound7")};
  auto rows = Run(sq);
  EXPECT_EQ(rows.size(), 2u);
}

TEST_F(RdfWrapperTest, TransfersOneMessagePerAnswer) {
  net::DelayChannel channel(net::NetworkProfile::NoDelay(), 1);
  BlockingQueue<rdf::Binding> out(1 << 20);
  fed::WrapperContext ctx;
  ctx.channel = &channel;
  ctx.out = &out;
  ASSERT_TRUE(wrapper_
                  ->Execute(MakeSubQuery(kStar,
                                         fed::FilterPlacement::kSource),
                            ctx)
                  .ok());
  // Message accounting is per answer row even when rows ship in batches.
  EXPECT_EQ(channel.messages_transferred(), 20u);
}

TEST_F(RdfWrapperTest, MoleculesExtracted) {
  auto molecules = wrapper_->Molecules();
  ASSERT_EQ(molecules.size(), 1u);
  EXPECT_EQ(molecules[0].class_iri, "http://k/Compound");
  EXPECT_EQ(molecules[0].predicates.size(), 3u);  // rdf:type, name, mass
  EXPECT_EQ(molecules[0].sources, (std::vector<std::string>{"kegg"}));
  EXPECT_EQ(molecules[0].cardinality, 20u);  // instance count
}

TEST_F(RdfWrapperTest, NoIndexMetadataForRdf) {
  EXPECT_FALSE(wrapper_->IsSubjectKeyIndexed("http://k/Compound"));
  EXPECT_FALSE(wrapper_->IsPredicateAttributeIndexed("http://k/Compound",
                                                     "http://k/mass"));
  EXPECT_FALSE(wrapper_->SupportsJoinPushdown());
}

TEST_F(RdfWrapperTest, StopsWhenDownstreamCancelled) {
  net::DelayChannel channel(net::NetworkProfile::NoDelay(), 1);
  BlockingQueue<rdf::Binding> out(4);
  out.Close();  // downstream is gone
  fed::WrapperContext ctx;
  ctx.channel = &channel;
  ctx.out = &out;
  Status st = wrapper_->Execute(
      MakeSubQuery(kStar, fed::FilterPlacement::kSource), ctx);
  EXPECT_TRUE(st.ok());
  // At most one message was "transferred" before the push failure.
  EXPECT_LE(channel.messages_transferred(), 1u);
}

}  // namespace
}  // namespace lakefed::wrapper
