#include "rdf/term.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "rdf/dictionary.h"

namespace lakefed::rdf {
namespace {

static_assert(sizeof(Term) <= 104, "a Term must stay within 104 bytes");

TEST(TermTest, Factories) {
  Term iri = Term::Iri("http://example.org/x");
  EXPECT_TRUE(iri.is_iri());
  EXPECT_EQ(iri.value(), "http://example.org/x");

  Term lit = Term::Literal("42", kXsdInteger);
  EXPECT_TRUE(lit.is_literal());
  EXPECT_EQ(lit.value(), "42");
  EXPECT_EQ(lit.datatype(), kXsdInteger);

  Term lang = Term::Literal("hallo", "", "de");
  EXPECT_EQ(lang.lang(), "de");

  Term blank = Term::Blank("b0");
  EXPECT_TRUE(blank.is_blank());
}

TEST(TermTest, NTriplesRendering) {
  EXPECT_EQ(Term::Iri("http://x/y").ToString(), "<http://x/y>");
  EXPECT_EQ(Term::Literal("plain").ToString(), "\"plain\"");
  EXPECT_EQ(Term::Literal("5", kXsdInteger).ToString(),
            "\"5\"^^<http://www.w3.org/2001/XMLSchema#integer>");
  EXPECT_EQ(Term::Literal("hi", "", "en").ToString(), "\"hi\"@en");
  EXPECT_EQ(Term::Blank("b1").ToString(), "_:b1");
  // escaping
  EXPECT_EQ(Term::Literal("a\"b\\c\nd").ToString(), "\"a\\\"b\\\\c\\nd\"");
}

TEST(TermTest, EqualityAndOrder) {
  EXPECT_EQ(Term::Iri("a"), Term::Iri("a"));
  EXPECT_NE(Term::Iri("a"), Term::Literal("a"));
  EXPECT_NE(Term::Literal("a"), Term::Literal("a", kXsdString));
  EXPECT_NE(Term::Literal("a", "", "en"), Term::Literal("a", "", "fr"));
  EXPECT_LT(Term::Iri("a"), Term::Literal("a"));    // IRIs sort first
  EXPECT_LT(Term::Literal("a"), Term::Blank("a"));  // blanks last
  EXPECT_LT(Term::Iri("a"), Term::Iri("b"));
}

TEST(TermTest, HashConsistentWithEquality) {
  EXPECT_EQ(Term::Iri("x").Hash(), Term::Iri("x").Hash());
  EXPECT_NE(Term::Iri("x").Hash(), Term::Literal("x").Hash());
  EXPECT_NE(Term::Literal("x", "", "en").Hash(),
            Term::Literal("x", "", "fr").Hash());
}

// A literal whose value, datatype and language tag total `total` bytes.
Term LiteralOfSize(size_t total, char fill) {
  const std::string dt = "http://t/dt";
  const std::string lang = "en";
  return Term::Literal(std::string(total - dt.size() - lang.size(), fill), dt,
                       lang);
}

TEST(TermStorageTest, InlineCapacityBoundary) {
  // 87 and 88 bytes fit inline; 89 takes the heap block.
  for (size_t total : {size_t{87}, size_t{88}, size_t{89}}) {
    SCOPED_TRACE(total);
    Term t = LiteralOfSize(total, 'v');
    EXPECT_EQ(t.value().size() + t.datatype().size() + t.lang().size(),
              total);
    EXPECT_EQ(t.value(), std::string(total - 13, 'v'));
    EXPECT_EQ(t.datatype(), "http://t/dt");
    EXPECT_EQ(t.lang(), "en");
    Term copy = t;
    EXPECT_EQ(copy, t);
    EXPECT_EQ(copy.Hash(), t.Hash());
    EXPECT_EQ(copy.ToString(), t.ToString());
    // Terms of one size differing in one byte stay distinct.
    EXPECT_NE(LiteralOfSize(total, 'w'), t);
  }
  std::string long_iri(Term::kInlineCapacity + 1, 'i');
  EXPECT_EQ(Term::Iri(long_iri).value(), long_iri);
  EXPECT_EQ(Term::Iri("http://p/", "123", "/s").value(), "http://p/123/s");
  EXPECT_EQ(Term::Iri(long_iri, "7", "").value(), long_iri + "7");
}

TEST(TermStorageTest, CopyMoveAndSelfAssignmentAcrossStorage) {
  const Term small = Term::Literal("short", kXsdString);
  const Term big = Term::Iri(std::string(200, 'x'));
  // Every direction: inline <- heap, heap <- inline, heap <- heap, ...
  for (const Term* from : {&small, &big}) {
    for (const Term* to : {&small, &big}) {
      Term dst = *to;
      dst = *from;  // copy-assign
      EXPECT_EQ(dst, *from);
      Term src = *from;
      Term moved_to = *to;
      moved_to = std::move(src);  // move-assign
      EXPECT_EQ(moved_to, *from);
      Term constructed(std::move(moved_to));  // move-construct
      EXPECT_EQ(constructed, *from);
    }
  }
  for (const Term* t : {&small, &big}) {
    Term self = *t;
    Term& alias = self;
    self = alias;
    EXPECT_EQ(self, *t);
    self = std::move(alias);
    EXPECT_EQ(self, *t);
  }
}

TEST(TermStorageTest, MovedFromTermIsReusable) {
  for (const Term& original :
       {Term::Literal("abc", "", "de"), Term::Blank(std::string(120, 'b'))}) {
    Term src = original;
    Term dst = std::move(src);
    EXPECT_EQ(dst, original);
    // The moved-from term is a valid empty IRI until reassigned.
    EXPECT_TRUE(src.is_iri());  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(src.value().empty());
    src = Term::Literal(std::string(100, 'r'), kXsdString);
    EXPECT_EQ(src.value(), std::string(100, 'r'));
    EXPECT_EQ(src.datatype(), kXsdString);
    src = Term::Iri("http://again");
    EXPECT_EQ(src.ToString(), "<http://again>");
    EXPECT_EQ(dst, original);
  }
}

// The string-per-part reference semantics the packed storage must keep.
struct RefTerm {
  TermKind kind;
  std::string value, datatype, lang;

  int Compare(const RefTerm& o) const {
    if (kind != o.kind) return kind < o.kind ? -1 : 1;
    if (int c = value.compare(o.value); c != 0) return c < 0 ? -1 : 1;
    if (int c = datatype.compare(o.datatype); c != 0) return c < 0 ? -1 : 1;
    if (int c = lang.compare(o.lang); c != 0) return c < 0 ? -1 : 1;
    return 0;
  }
  size_t Hash() const {
    size_t h = std::hash<std::string>{}(value);
    h = h * 31 + static_cast<size_t>(kind);
    if (!datatype.empty()) h = h * 31 + std::hash<std::string>{}(datatype);
    if (!lang.empty()) h = h * 31 + std::hash<std::string>{}(lang);
    return h;
  }
  std::string ToString() const {
    switch (kind) {
      case TermKind::kIri: return "<" + value + ">";
      case TermKind::kBlank: return "_:" + value;
      case TermKind::kLiteral: {
        std::string escaped = ReplaceAll(value, "\\", "\\\\");
        escaped = ReplaceAll(escaped, "\"", "\\\"");
        escaped = ReplaceAll(escaped, "\n", "\\n");
        std::string out = "\"" + escaped + "\"";
        if (!lang.empty()) return out + "@" + lang;
        if (!datatype.empty()) return out + "^^<" + datatype + ">";
        return out;
      }
    }
    return "";
  }
  Term Make() const {
    switch (kind) {
      case TermKind::kIri: return Term::Iri(value);
      case TermKind::kBlank: return Term::Blank(value);
      case TermKind::kLiteral: return Term::Literal(value, datatype, lang);
    }
    return Term();
  }
};

TEST(TermStorageTest, CompareHashAndRenderingMatchReference) {
  const std::string long_text(150, 'q');
  std::vector<RefTerm> corpus = {
      {TermKind::kIri, "", "", ""},
      {TermKind::kIri, "http://x/a", "", ""},
      {TermKind::kIri, "http://x/ab", "", ""},
      {TermKind::kIri, long_text, "", ""},
      {TermKind::kIri, long_text + "r", "", ""},
      {TermKind::kBlank, "b0", "", ""},
      {TermKind::kLiteral, "", "", ""},
      {TermKind::kLiteral, "a", "", ""},
      {TermKind::kLiteral, "a", kXsdString, ""},
      {TermKind::kLiteral, "a", "", "en"},
      {TermKind::kLiteral, "a", "", "fr"},
      {TermKind::kLiteral, "1", kXsdInteger, ""},
      {TermKind::kLiteral, "q\"uo\\te\nnl", "", ""},
      {TermKind::kLiteral, "\xc3\xa9t\xc3\xa9", "", "fr"},  // bytes >= 0x80
      {TermKind::kLiteral, std::string("nul\0in", 6), "", ""},
      {TermKind::kLiteral, long_text, kXsdString, ""},
      {TermKind::kLiteral, long_text, "", "en"},
  };
  for (const RefTerm& a : corpus) {
    Term ta = a.Make();
    SCOPED_TRACE(a.ToString());
    EXPECT_EQ(ta.ToString(), a.ToString());
    EXPECT_EQ(ta.Hash(), a.Hash());
    for (const RefTerm& b : corpus) {
      Term tb = b.Make();
      EXPECT_EQ(ta.Compare(tb), a.Compare(b)) << b.ToString();
      EXPECT_EQ(ta == tb, a.Compare(b) == 0) << b.ToString();
      EXPECT_EQ(ta < tb, a.Compare(b) < 0) << b.ToString();
    }
  }
}

TEST(TripleTest, ToString) {
  Triple t{Term::Iri("s"), Term::Iri("p"), Term::Literal("o")};
  EXPECT_EQ(t.ToString(), "<s> <p> \"o\" .");
}

TEST(DictionaryTest, InternIsIdempotent) {
  Dictionary dict;
  TermId a = dict.Intern(Term::Iri("x"));
  TermId b = dict.Intern(Term::Iri("x"));
  TermId c = dict.Intern(Term::Iri("y"));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.term(a), Term::Iri("x"));
}

TEST(DictionaryTest, FindWithoutIntern) {
  Dictionary dict;
  EXPECT_EQ(dict.Find(Term::Iri("z")), std::nullopt);
  TermId id = dict.Intern(Term::Iri("z"));
  EXPECT_EQ(dict.Find(Term::Iri("z")), id);
}

TEST(DictionaryTest, DistinguishesLiteralFlavours) {
  Dictionary dict;
  TermId plain = dict.Intern(Term::Literal("v"));
  TermId typed = dict.Intern(Term::Literal("v", kXsdString));
  TermId langed = dict.Intern(Term::Literal("v", "", "en"));
  EXPECT_NE(plain, typed);
  EXPECT_NE(plain, langed);
  EXPECT_NE(typed, langed);
}

}  // namespace
}  // namespace lakefed::rdf
