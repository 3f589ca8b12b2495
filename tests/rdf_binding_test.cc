// rdf::Binding against the std::map<std::string, Term> semantics it
// replaced, MergeBindings, and the injectivity of the term/row keys that
// joins, DISTINCT and IN-list membership are built on.

#include "rdf/binding.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace lakefed::rdf {
namespace {

using RefMap = std::map<std::string, Term>;

Term I(const std::string& s) { return Term::Iri(s); }
Term L(const std::string& s) { return Term::Literal(s); }

std::vector<std::pair<std::string, Term>> Entries(const Binding& b) {
  return {b.begin(), b.end()};
}
std::vector<std::pair<std::string, Term>> Entries(const RefMap& m) {
  return {m.begin(), m.end()};
}

TEST(BindingTest, InsertDoesNotOverwrite) {
  Binding b;
  auto [it, inserted] = b.insert({"x", L("first")});
  EXPECT_TRUE(inserted);
  EXPECT_EQ(it->second, L("first"));
  auto [it2, inserted2] = b.insert({"x", L("second")});
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(it2->second, L("first"));
  auto [it3, inserted3] = b.emplace("x", L("third"));
  EXPECT_FALSE(inserted3);
  EXPECT_EQ(it3->second, L("first"));
  EXPECT_EQ(b.size(), 1u);
}

TEST(BindingTest, SubscriptDefaultInsertsAndAssigns) {
  Binding b;
  Term& t = b["y"];
  EXPECT_EQ(t, Term());
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(b.count("y"), 1u);
  b["y"] = I("http://ex/y");
  EXPECT_EQ(b.at("y"), I("http://ex/y"));
  EXPECT_EQ(b.size(), 1u);
}

TEST(BindingTest, AtThrowsOnUnboundVariable) {
  Binding b{{"x", L("1")}};
  EXPECT_EQ(b.at("x"), L("1"));
  EXPECT_THROW(b.at("nope"), std::out_of_range);
  const Binding& cb = b;
  EXPECT_THROW(cb.at("nope"), std::out_of_range);
}

TEST(BindingTest, IterationIsSortedByVariable) {
  Binding b;
  for (const char* var : {"m", "b", "z", "a", "k"}) b[var] = L(var);
  std::vector<std::string> vars;
  for (const auto& [var, term] : b) vars.push_back(var);
  EXPECT_EQ(vars, (std::vector<std::string>{"a", "b", "k", "m", "z"}));
}

TEST(BindingTest, InitializerListKeepsFirstOfDuplicates) {
  Binding b{{"y", L("1")}, {"x", L("2")}, {"y", L("3")}};
  RefMap m{{"y", L("1")}, {"x", L("2")}, {"y", L("3")}};
  EXPECT_EQ(Entries(b), Entries(m));
}

TEST(BindingTest, EraseByKeyAndIterator) {
  Binding b{{"a", L("1")}, {"b", L("2")}, {"c", L("3")}};
  EXPECT_EQ(b.erase("b"), 1u);
  EXPECT_EQ(b.erase("b"), 0u);
  EXPECT_EQ(b.count("b"), 0u);
  auto next = b.erase(b.find("a"));
  ASSERT_NE(next, b.end());
  EXPECT_EQ(next->first, "c");
  EXPECT_EQ(b.size(), 1u);
  b.clear();
  EXPECT_TRUE(b.empty());
}

TEST(BindingTest, EmplaceHintAppendsAndFallsBackOutOfOrder) {
  Binding b;
  b.emplace_hint(b.end(), "a", L("1"));
  b.emplace_hint(b.end(), "c", L("3"));
  b.emplace_hint(b.end(), "b", L("2"));  // out of order: sorted insert
  b.emplace_hint(b.end(), "c", L("x"));  // already bound: kept
  RefMap m{{"a", L("1")}, {"b", L("2")}, {"c", L("3")}};
  EXPECT_EQ(Entries(b), Entries(m));
}

// Random operation sequences applied to both a Binding and a std::map
// must leave them with the same entries, and pairs of them must compare
// (== and <) exactly as the maps do.
TEST(BindingTest, MatchesStdMapUnderRandomOperations) {
  Rng rng(20201);
  const std::vector<std::string> vars = {"a", "b", "ab", "c", "x", "y", ""};
  const std::vector<Term> terms = {L("1"), L("2"), I("1"), Term()};
  auto pick_var = [&] { return vars[rng.UniformInt(0, vars.size() - 1)]; };
  auto pick_term = [&] { return terms[rng.UniformInt(0, terms.size() - 1)]; };

  std::vector<Binding> bindings;
  std::vector<RefMap> maps;
  for (int round = 0; round < 200; ++round) {
    Binding b;
    RefMap m;
    for (int op = 0; op < 12; ++op) {
      std::string var = pick_var();
      Term term = pick_term();
      switch (rng.UniformInt(0, 4)) {
        case 0:
          EXPECT_EQ(b.insert({var, term}).second,
                    m.insert({var, term}).second);
          break;
        case 1:
          EXPECT_EQ(b.emplace(var, term).second, m.emplace(var, term).second);
          break;
        case 2:
          b[var] = term;
          m[var] = term;
          break;
        case 3:
          EXPECT_EQ(b.erase(var), m.erase(var));
          break;
        case 4:
          EXPECT_EQ(b.count(var), m.count(var));
          break;
      }
    }
    ASSERT_EQ(Entries(b), Entries(m));
    bindings.push_back(std::move(b));
    maps.push_back(std::move(m));
  }
  for (size_t i = 0; i < bindings.size(); ++i) {
    for (size_t j = 0; j < bindings.size(); ++j) {
      EXPECT_EQ(bindings[i] == bindings[j], maps[i] == maps[j]);
      EXPECT_EQ(bindings[i] < bindings[j], maps[i] < maps[j]);
    }
  }
}

TEST(BindingTest, OrderIsLexicographicOverEntries) {
  Binding shorter{{"a", L("1")}};
  Binding longer{{"a", L("1")}, {"b", L("0")}};
  Binding later_var{{"b", L("0")}};
  Binding later_term{{"a", L("2")}};
  EXPECT_TRUE(shorter < longer);
  EXPECT_TRUE(longer < later_var);  // "a" < "b" decides first
  EXPECT_TRUE(longer < later_term);
  EXPECT_FALSE(later_term < longer);
  EXPECT_TRUE(Binding{} < shorter);
  EXPECT_EQ(shorter, (Binding{{"a", L("1")}}));
}

TEST(BindingTest, MergeKeepsLeftTermOnSharedVariables) {
  Binding left{{"b", L("left")}, {"d", L("d")}, {"a", L("a")}};
  Binding right{{"b", L("right")}, {"c", L("c")}, {"e", L("e")}};
  Binding merged = MergeBindings(left, right);
  // Reference: `out = left; out.insert(right)` on std::map.
  RefMap ref(left.begin(), left.end());
  ref.insert(right.begin(), right.end());
  EXPECT_EQ(Entries(merged), Entries(ref));
  EXPECT_EQ(merged.at("b"), L("left"));
  EXPECT_EQ(MergeBindings(Binding{}, right), right);
  EXPECT_EQ(MergeBindings(left, Binding{}), left);
}

std::string TermKey(const Term& t) {
  std::string key;
  AppendTermKey(t, &key);
  return key;
}

std::string JoinKeyOf(const std::vector<Term>& terms) {
  std::string key;
  for (const Term& t : terms) AppendTermKey(t, &key);
  return key;
}

TEST(RowKeyTest, ConcatenatedValuesDoNotCollide) {
  EXPECT_NE(JoinKeyOf({L("ab"), L("c")}), JoinKeyOf({L("a"), L("bc")}));
  EXPECT_NE(JoinKeyOf({I("ab"), I("c")}), JoinKeyOf({I("a"), I("bc")}));
  EXPECT_NE(JoinKeyOf({L(""), L("x")}), JoinKeyOf({L("x"), L("")}));
  EXPECT_EQ(JoinKeyOf({L("ab"), L("c")}), JoinKeyOf({L("ab"), L("c")}));
}

TEST(RowKeyTest, KindsDatatypesAndLanguagesDoNotCollide) {
  std::vector<Term> terms = {
      I("x"),
      L("x"),
      Term::Blank("x"),
      L("1"),
      Term::Literal("1", kXsdInteger),
      Term::Literal("1", "", "en"),
      Term::Literal("1", "en"),
      Term::Literal("1\"", ""),
      Term::Literal("1", "", "\""),
      // Value bytes that mimic another term's length prefix and fields.
      L(std::string("1\x00\x00", 3)),
      Term::Literal(std::string("1\x01", 2), "", ""),
  };
  std::set<std::string> keys;
  for (const Term& t : terms) keys.insert(TermKey(t));
  EXPECT_EQ(keys.size(), terms.size());
  for (const Term& a : terms) {
    for (const Term& b : terms) {
      EXPECT_EQ(TermKey(a) == TermKey(b), a == b)
          << a.ToString() << " vs " << b.ToString();
    }
  }
}

TEST(RowKeyTest, LongValuesTakeMultiByteLengthPrefix) {
  // 128+ bytes take a two-byte length prefix.
  std::string long_value(200, 'v');
  EXPECT_NE(TermKey(L(long_value)), TermKey(L(long_value + "v")));
  EXPECT_NE(JoinKeyOf({L(long_value), L("")}),
            JoinKeyOf({L(long_value.substr(0, 199)), L("v")}));
}

TEST(RowKeyTest, RowKeyDistinguishesVariablesAndTerms) {
  auto row_key = [](const Binding& b) {
    std::string key;
    AppendRowKey(b, &key);
    return key;
  };
  std::vector<Binding> rows = {
      {{"x", L("ab")}, {"y", L("c")}},
      {{"x", L("a")}, {"y", L("bc")}},
      {{"x", L("abc")}},
      {{"xy", L("abc")}},
      {{"x", I("abc")}},
      {{"x", L("1")}},
      {{"x", Term::Literal("1", kXsdInteger)}},
      {{"x", Term::Literal("1", "", "en")}},
      {},
  };
  std::set<std::string> keys;
  for (const Binding& b : rows) keys.insert(row_key(b));
  EXPECT_EQ(keys.size(), rows.size());
  EXPECT_EQ(row_key(rows[0]), row_key(Binding{{"y", L("c")}, {"x", L("ab")}}));
}

}  // namespace
}  // namespace lakefed::rdf
