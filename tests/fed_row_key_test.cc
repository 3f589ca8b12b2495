// Row keys on the mediator's hot path must be injective: hash joins,
// dependent-join probe instantiations and DISTINCT may only treat two
// rows as equal when their terms are equal — never because their values
// concatenate to the same text, or because an IRI, a plain literal, a
// typed literal and a language-tagged literal share a lexical form. Runs
// every check with both join operators.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "fed/engine.h"
#include "fed_test_util.h"

namespace lakefed::fed {
namespace {

rdf::Term L(const std::string& s) { return rdf::Term::Literal(s); }
rdf::Term I(const std::string& s) { return rdf::Term::Iri(s); }

// A source answering one class's star from a fixed row list, honouring
// dependent-join instantiations by term equality.
class FixedRowsWrapper : public SourceWrapper {
 public:
  FixedRowsWrapper(std::string id, std::string class_iri,
                   std::vector<std::string> predicates,
                   std::vector<rdf::Binding> rows)
      : id_(std::move(id)),
        class_iri_(std::move(class_iri)),
        predicates_(std::move(predicates)),
        rows_(std::move(rows)) {}

  const std::string& id() const override { return id_; }
  SourceKind kind() const override { return SourceKind::kRdf; }
  // Claims indexes so that use_dependent_join plans bind joins here.
  bool IsPredicateAttributeIndexed(const std::string&,
                                   const std::string&) const override {
    return true;
  }

  std::vector<mapping::RdfMt> Molecules() const override {
    mapping::RdfMt molecule;
    molecule.class_iri = class_iri_;
    molecule.predicates = {predicates_.begin(), predicates_.end()};
    molecule.predicates.insert(rdf::kRdfType);
    molecule.sources = {id_};
    return {molecule};
  }

  Status Execute(const SubQuery& subquery, const WrapperContext& ctx) override {
    BatchEmitter emitter(ctx);
    for (const rdf::Binding& row : rows_) {
      bool allowed = true;
      for (const auto& [var, terms] : subquery.instantiations) {
        auto it = row.find(var);
        allowed = allowed && it != row.end() &&
                  std::find(terms.begin(), terms.end(), it->second) !=
                      terms.end();
      }
      if (allowed && !emitter.Emit(row)) break;
    }
    return emitter.Finish();
  }

 private:
  std::string id_;
  std::string class_iri_;
  std::vector<std::string> predicates_;
  std::vector<rdf::Binding> rows_;
};

// Left source: ?a a <http://t/A> ; <http://t/p1> ?x ; <http://t/p2> ?y.
// Right source: ?b a <http://t/B> ; <http://t/q1> ?x ; <http://t/q2> ?y.
// Each row pair below agrees on (?x, ?y) only in text, except the three
// typed "1" rows and ("k", "v"), which each join with their own twin.
std::unique_ptr<FederatedEngine> MakeEngine() {
  std::vector<rdf::Binding> left, right;
  auto add = [](std::vector<rdf::Binding>* rows, const std::string& subj_var,
                const std::string& subj, rdf::Term x, rdf::Term y) {
    rows->push_back({{subj_var, I(subj)}, {"x", std::move(x)},
                     {"y", std::move(y)}});
  };
  add(&left, "a", "http://t/a1", L("ab"), L("c"));
  add(&right, "b", "http://t/b1", L("a"), L("bc"));
  add(&left, "a", "http://t/a2", I("x"), L("v"));
  add(&right, "b", "http://t/b2", L("x"), L("v"));
  const std::vector<rdf::Term> ones = {
      L("1"), rdf::Term::Literal("1", rdf::kXsdInteger),
      rdf::Term::Literal("1", "", "en")};
  for (size_t i = 0; i < ones.size(); ++i) {
    add(&left, "a", "http://t/a1" + std::to_string(i), ones[i], L("v"));
    add(&right, "b", "http://t/b1" + std::to_string(i), ones[i], L("v"));
  }
  add(&left, "a", "http://t/a9", L("k"), L("v"));
  add(&right, "b", "http://t/b9", L("k"), L("v"));

  auto engine = std::make_unique<FederatedEngine>();
  EXPECT_TRUE(engine
                  ->RegisterSource(std::make_unique<FixedRowsWrapper>(
                      "left", "http://t/A",
                      std::vector<std::string>{"http://t/p1", "http://t/p2"},
                      std::move(left)))
                  .ok());
  EXPECT_TRUE(engine
                  ->RegisterSource(std::make_unique<FixedRowsWrapper>(
                      "right", "http://t/B",
                      std::vector<std::string>{"http://t/q1", "http://t/q2"},
                      std::move(right)))
                  .ok());
  return engine;
}

// Parameter: use dependent joins (else symmetric hash joins).
class FedRowKeyTest : public ::testing::TestWithParam<bool> {
 protected:
  // Runs `query` with symmetric hash joins or dependent joins; `*plan`
  // receives the plan text.
  std::vector<std::string> Run(const std::string& query,
                               std::string* plan = nullptr) {
    PlanOptions options;
    options.use_dependent_join = GetParam();
    auto answer = engine_->Execute(query, options);
    EXPECT_TRUE(answer.ok()) << answer.status();
    if (!answer.ok()) return {};
    if (plan != nullptr) *plan = answer->plan_text;
    return SerializeAnswers(*answer);
  }

  std::unique_ptr<FederatedEngine> engine_ = MakeEngine();
};

TEST_P(FedRowKeyTest, JoinMatchesOnlyEqualTerms) {
  // With dependent joins, the probe's instantiation list must keep all
  // three "1" terms, or the bound source filters two matches away.
  std::string plan;
  std::vector<std::string> rows = Run(
      "SELECT ?a ?b WHERE { "
      "  ?a a <http://t/A> ; <http://t/p1> ?x ; <http://t/p2> ?y . "
      "  ?b a <http://t/B> ; <http://t/q1> ?x ; <http://t/q2> ?y . }",
      &plan);
  EXPECT_NE(plan.find(GetParam() ? "DependentJoin" : "SymmetricHashJoin"),
            std::string::npos)
      << plan;
  EXPECT_EQ(rows, (std::vector<std::string>{
                      "<http://t/a10>|<http://t/b10>|",
                      "<http://t/a11>|<http://t/b11>|",
                      "<http://t/a12>|<http://t/b12>|",
                      "<http://t/a9>|<http://t/b9>|",
                  }));
}

TEST_P(FedRowKeyTest, DistinctKeepsRowsThatDifferOnlyInKindOrSplit) {
  // Every left row is distinct on (?x, ?y), and so is every right row.
  std::vector<std::string> rows = Run(
      "SELECT DISTINCT ?x ?y WHERE { "
      "  ?a a <http://t/A> ; <http://t/p1> ?x ; <http://t/p2> ?y . }");
  EXPECT_EQ(rows.size(), 6u);
  rows = Run(
      "SELECT DISTINCT ?y WHERE { "
      "  ?b a <http://t/B> ; <http://t/q1> ?x ; <http://t/q2> ?y . }");
  EXPECT_EQ(rows, (std::vector<std::string>{"\"bc\"|", "\"v\"|"}));
}

INSTANTIATE_TEST_SUITE_P(
    JoinOperator, FedRowKeyTest, ::testing::Bool(),
    [](const ::testing::TestParamInfo<bool>& info) {
      return std::string(info.param ? "depjoin" : "hashjoin");
    });

}  // namespace
}  // namespace lakefed::fed
