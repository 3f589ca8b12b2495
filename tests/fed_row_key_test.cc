// Row keys on the mediator's hot path must be injective: hash joins,
// OPTIONAL, dependent-join probe instantiations and DISTINCT may only treat
// two rows as equal when their terms are equal — never because their
// values concatenate to the same text, or because an IRI, a plain literal,
// a typed literal and a language-tagged literal share a lexical form. The
// join checks run with every join operator (all three share one join
// index); they also cover cross products, unbound join variables, one
// input closing long before the other, and a cancel mid-build.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "fed/engine.h"
#include "fed_test_util.h"

namespace lakefed::fed {
namespace {

rdf::Term L(const std::string& s) { return rdf::Term::Literal(s); }
rdf::Term I(const std::string& s) { return rdf::Term::Iri(s); }

// How a FixedRowsWrapper delivers its rows.
struct Pace {
  std::chrono::milliseconds per_row{0};  // sleep before each row
  bool hold_until_cancelled = false;     // after the rows, wait for cancel
};

// A source answering one class's star from a fixed row list, honouring
// dependent-join instantiations by term equality.
class FixedRowsWrapper : public SourceWrapper {
 public:
  FixedRowsWrapper(std::string id, std::string class_iri,
                   std::vector<std::string> predicates,
                   std::vector<rdf::Binding> rows, Pace pace = {})
      : id_(std::move(id)),
        class_iri_(std::move(class_iri)),
        predicates_(std::move(predicates)),
        rows_(std::move(rows)),
        pace_(pace) {}

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
      if (!allowed) continue;
      std::this_thread::sleep_for(pace_.per_row);
      if (!emitter.Emit(row)) break;
    }
    Status st = emitter.Finish();
    while (pace_.hold_until_cancelled && !ctx.token.IsCancelled()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return st;
  }

 private:
  std::string id_;
  std::string class_iri_;
  std::vector<std::string> predicates_;
  std::vector<rdf::Binding> rows_;
  Pace pace_;
};

// Registers a left source (class <http://t/A>, predicates p1/p2) and a
// right source (class <http://t/B>, predicates q1/q2) serving fixed rows.
std::unique_ptr<FederatedEngine> MakeEngine(std::vector<rdf::Binding> left,
                                            std::vector<rdf::Binding> right,
                                            Pace left_pace = {},
                                            Pace right_pace = {}) {
  auto engine = std::make_unique<FederatedEngine>();
  EXPECT_TRUE(engine
                  ->RegisterSource(std::make_unique<FixedRowsWrapper>(
                      "left", "http://t/A",
                      std::vector<std::string>{"http://t/p1", "http://t/p2"},
                      std::move(left), left_pace))
                  .ok());
  EXPECT_TRUE(engine
                  ->RegisterSource(std::make_unique<FixedRowsWrapper>(
                      "right", "http://t/B",
                      std::vector<std::string>{"http://t/q1", "http://t/q2"},
                      std::move(right), right_pace))
                  .ok());
  return engine;
}

// A left row (?a ?x ?y) or right row (?b ?x ?y); an empty term leaves the
// variable unbound.
rdf::Binding Row(const std::string& subj_var, const std::string& subj,
                 rdf::Term x, rdf::Term y) {
  rdf::Binding row{{subj_var, I(subj)}};
  if (x != rdf::Term()) row.emplace("x", std::move(x));
  if (y != rdf::Term()) row.emplace("y", std::move(y));
  return row;
}

// Left source: ?a a <http://t/A> ; <http://t/p1> ?x ; <http://t/p2> ?y.
// Right source: ?b a <http://t/B> ; <http://t/q1> ?x ; <http://t/q2> ?y.
// Each row pair below agrees on (?x, ?y) only in text, except the three
// typed "1" rows and ("k", "v"), which each join with their own twin.
std::unique_ptr<FederatedEngine> MakeEngine() {
  std::vector<rdf::Binding> left, right;
  left.push_back(Row("a", "http://t/a1", L("ab"), L("c")));
  right.push_back(Row("b", "http://t/b1", L("a"), L("bc")));
  left.push_back(Row("a", "http://t/a2", I("x"), L("v")));
  right.push_back(Row("b", "http://t/b2", L("x"), L("v")));
  const std::vector<rdf::Term> ones = {
      L("1"), rdf::Term::Literal("1", rdf::kXsdInteger),
      rdf::Term::Literal("1", "", "en")};
  for (size_t i = 0; i < ones.size(); ++i) {
    const std::string n = std::to_string(i);
    left.push_back(Row("a", "http://t/a1" + n, ones[i], L("v")));
    right.push_back(Row("b", "http://t/b1" + n, ones[i], L("v")));
  }
  left.push_back(Row("a", "http://t/a9", L("k"), L("v")));
  right.push_back(Row("b", "http://t/b9", L("k"), L("v")));
  return MakeEngine(std::move(left), std::move(right));
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

enum class JoinOp { kHashJoin, kDependentJoin, kOptional };

std::string JoinOpName(JoinOp op) {
  switch (op) {
    case JoinOp::kHashJoin: return "hashjoin";
    case JoinOp::kDependentJoin: return "depjoin";
    case JoinOp::kOptional: return "optional";
  }
  return "";
}

void PrintTo(JoinOp op, std::ostream* os) { *os << JoinOpName(op); }

// Parameter: the join operator a two-source query runs through.
class FedJoinIndexTest : public ::testing::TestWithParam<JoinOp> {
 protected:
  bool optional() const { return GetParam() == JoinOp::kOptional; }

  // The two-star query joining ?a's and ?b's stars on `shared` (the right
  // star OPTIONAL for kOptional); the right star binds `right_vars`.
  std::string Query(const std::string& left_vars,
                    const std::string& right_vars) const {
    std::string right = "?b a <http://t/B> ; " + right_vars + " . ";
    return "SELECT ?a ?b WHERE { ?a a <http://t/A> ; " + left_vars + " . " +
           (optional() ? "OPTIONAL { " + right + "} }" : right + "}");
  }

  std::string JoinOnXY() const {
    return Query("<http://t/p1> ?x ; <http://t/p2> ?y",
                 "<http://t/q1> ?x ; <http://t/q2> ?y");
  }

  PlanOptions Options() const {
    PlanOptions options;
    options.use_dependent_join = GetParam() == JoinOp::kDependentJoin;
    options.batch_size = 2;  // many morsels per input
    return options;
  }

  std::vector<std::string> Run(FederatedEngine* engine,
                               const std::string& query,
                               std::string* plan = nullptr) const {
    auto answer = engine->Execute(query, Options());
    EXPECT_TRUE(answer.ok()) << answer.status();
    if (!answer.ok()) return {};
    if (plan != nullptr) *plan = answer->plan_text;
    return SerializeAnswers(*answer);
  }

  // What the join must answer: "?a|?b|" per pair of rows whose join terms
  // are all bound and equal, plus "?a|~unbound~|" per unmatched left row
  // under OPTIONAL. Sorted like SerializeAnswers.
  std::vector<std::string> Expected(const std::vector<rdf::Binding>& left,
                                    const std::vector<rdf::Binding>& right,
                                    const std::vector<std::string>& vars) {
    std::vector<std::string> out;
    for (const rdf::Binding& l : left) {
      bool matched = false;
      for (const rdf::Binding& r : right) {
        bool match = true;
        for (const std::string& v : vars) {
          match = match && l.count(v) == 1 && r.count(v) == 1 &&
                  l.at(v) == r.at(v);
        }
        if (!match) continue;
        matched = true;
        out.push_back(l.at("a").ToString() + "|" + r.at("b").ToString() + "|");
      }
      if (!matched && optional()) {
        out.push_back(l.at("a").ToString() + "|~unbound~|");
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }
};

TEST_P(FedJoinIndexTest, JoinMatchesOnlyEqualTerms) {
  // With dependent joins, the probe's instantiation list must keep all
  // three "1" terms, or the bound source filters two matches away.
  std::unique_ptr<FederatedEngine> engine = MakeEngine();
  std::string plan;
  std::vector<std::string> rows = Run(engine.get(), JoinOnXY(), &plan);
  const char* op = GetParam() == JoinOp::kHashJoin ? "SymmetricHashJoin"
                   : GetParam() == JoinOp::kDependentJoin ? "DependentJoin"
                                                          : "LeftJoin";
  EXPECT_NE(plan.find(op), std::string::npos) << plan;
  std::vector<std::string> expected = {
      "<http://t/a10>|<http://t/b10>|",
      "<http://t/a11>|<http://t/b11>|",
      "<http://t/a12>|<http://t/b12>|",
      "<http://t/a9>|<http://t/b9>|",
  };
  if (optional()) {
    // The two left rows that only agree with a right row in text.
    expected.push_back("<http://t/a1>|~unbound~|");
    expected.push_back("<http://t/a2>|~unbound~|");
    std::sort(expected.begin(), expected.end());
  }
  EXPECT_EQ(rows, expected);
}

TEST_P(FedJoinIndexTest, NoJoinVariablesIsACrossProduct) {
  std::vector<rdf::Binding> left, right;
  for (int i = 0; i < 5; ++i) {
    left.push_back({{"a", I("http://t/a" + std::to_string(i))},
                    {"x", L("l" + std::to_string(i))}});
  }
  for (int i = 0; i < 4; ++i) {
    right.push_back({{"b", I("http://t/b" + std::to_string(i))},
                     {"z", L("r" + std::to_string(i))}});
  }
  auto engine = MakeEngine(left, right);
  std::string plan;
  std::vector<std::string> rows =
      Run(engine.get(), Query("<http://t/p1> ?x", "<http://t/q1> ?z"), &plan);
  EXPECT_NE(plan.find(optional() ? "(unconditional)" : "(cross product)"),
            std::string::npos)
      << plan;
  EXPECT_EQ(rows.size(), 20u);
  EXPECT_EQ(rows, Expected(left, right, {}));
}

TEST_P(FedJoinIndexTest, UnboundJoinVariableNeverMatches) {
  // Every row agrees on ?x = "k"; the rows missing ?y must not match,
  // not even each other.
  std::vector<rdf::Binding> left = {
      Row("a", "http://t/a1", L("k"), L("v")),
      Row("a", "http://t/a2", L("k"), rdf::Term()),
  };
  std::vector<rdf::Binding> right = {
      Row("b", "http://t/b1", L("k"), L("v")),
      Row("b", "http://t/b2", L("k"), rdf::Term()),
  };
  auto engine = MakeEngine(left, right);
  std::vector<std::string> rows = Run(engine.get(), JoinOnXY());
  std::vector<std::string> expected = {"<http://t/a1>|<http://t/b1>|"};
  if (optional()) expected.push_back("<http://t/a2>|~unbound~|");
  EXPECT_EQ(rows, expected);
  EXPECT_EQ(rows, Expected(left, right, {"x", "y"}));
}

TEST_P(FedJoinIndexTest, InputClosingEarlyLosesNoMatch) {
  // Many rows per key on both sides, so every match needs rows that
  // arrived after the fast input closed and the hash join dropped the
  // slow side's stored rows.
  std::vector<rdf::Binding> left, right;
  for (int i = 0; i < 24; ++i) {
    rdf::Term key = L("k" + std::to_string(i % 4));
    left.push_back(Row("a", "http://t/a" + std::to_string(i), key, L("v")));
    right.push_back(Row("b", "http://t/b" + std::to_string(i), key, L("v")));
  }
  right.push_back(Row("b", "http://t/b99", L("k9"), L("v")));  // no partner
  const std::vector<std::string> expected =
      Expected(left, right, {"x", "y"});
  ASSERT_EQ(expected.size(), 144u);
  const Pace slow{std::chrono::milliseconds(1), false};
  for (bool left_slow : {false, true}) {
    SCOPED_TRACE(left_slow ? "left input slow" : "right input slow");
    auto engine = MakeEngine(left, right, left_slow ? slow : Pace{},
                             left_slow ? Pace{} : slow);
    EXPECT_EQ(Run(engine.get(), JoinOnXY()), expected);
  }
}

TEST_P(FedJoinIndexTest, CancelWhileStoringRows) {
  // Both inputs deliver rows, then one never closes: the join holds stored
  // rows when the session is cancelled, and must release them and finish.
  std::vector<rdf::Binding> left, right;
  for (int i = 0; i < 200; ++i) {
    rdf::Term key = L("k" + std::to_string(i));
    left.push_back(Row("a", "http://t/a" + std::to_string(i), key, L("v")));
    right.push_back(Row("b", "http://t/b" + std::to_string(i), key, L("v")));
  }
  const Pace hold{std::chrono::milliseconds(0), true};
  for (bool left_holds : {false, true}) {
    SCOPED_TRACE(left_holds ? "left input holds" : "right input holds");
    auto engine = MakeEngine(left, right, left_holds ? hold : Pace{},
                             left_holds ? Pace{} : hold);
    auto stream = engine->CreateSession(QueryRequest::Text(JoinOnXY(),
                                                           Options()));
    ASSERT_TRUE(stream.ok()) << stream.status();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    (*stream)->Cancel();
    RowBatch batch;
    while ((*stream)->NextBatch(&batch)) {
    }
    EXPECT_EQ((*stream)->Finish().code(), StatusCode::kCancelled);
  }
}

INSTANTIATE_TEST_SUITE_P(
    JoinOperator, FedJoinIndexTest,
    ::testing::Values(JoinOp::kHashJoin, JoinOp::kDependentJoin,
                      JoinOp::kOptional),
    [](const ::testing::TestParamInfo<JoinOp>& info) {
      return JoinOpName(info.param);
    });

}  // namespace
}  // namespace lakefed::fed
