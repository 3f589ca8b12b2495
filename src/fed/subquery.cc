#include "fed/subquery.h"

#include <algorithm>
#include <cstdint>
#include <set>

namespace lakefed::fed {

std::string SourceKindToString(SourceKind kind) {
  return kind == SourceKind::kRdf ? "RDF" : "RDB";
}

std::vector<std::string> StarSubQuery::Variables() const {
  std::vector<std::string> out;
  std::set<std::string> seen;
  auto add = [&](const std::string& v) {
    if (seen.insert(v).second) out.push_back(v);
  };
  if (subject.is_var) add(subject.var);
  for (const rdf::TriplePattern& p : patterns) {
    for (const std::string& v : p.Variables()) add(v);
  }
  return out;
}

std::vector<std::string> StarSubQuery::ConstantPredicates() const {
  std::vector<std::string> out;
  for (const rdf::TriplePattern& p : patterns) {
    if (!p.predicate.is_var && p.predicate.term.is_iri()) {
      out.emplace_back(p.predicate.term.value());
    }
  }
  return out;
}

std::optional<std::string> StarSubQuery::PredicateOfObjectVar(
    const std::string& var) const {
  for (const rdf::TriplePattern& p : patterns) {
    if (p.object.is_var && p.object.var == var && !p.predicate.is_var &&
        p.predicate.term.is_iri()) {
      return std::string(p.predicate.term.value());
    }
  }
  return std::nullopt;
}

std::string StarSubQuery::ToString() const {
  std::string out = "SSQ(" + subject.ToString() + ") {";
  for (const rdf::TriplePattern& p : patterns) {
    out += " " + p.ToString();
  }
  for (const sparql::FilterExprPtr& f : filters) {
    out += " FILTER " + f->ToString();
  }
  return out + " }";
}

std::vector<std::string> SubQuery::Variables() const {
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (const StarSubQuery& star : stars) {
    for (const std::string& v : star.Variables()) {
      if (seen.insert(v).second) out.push_back(v);
    }
  }
  return out;
}

std::vector<sparql::FilterExprPtr> SubQuery::SourceFilters() const {
  std::vector<sparql::FilterExprPtr> out;
  for (const PlacedFilter& pf : filters) {
    if (pf.placement == FilterPlacement::kSource) out.push_back(pf.filter);
  }
  return out;
}

std::vector<sparql::FilterExprPtr> SubQuery::EngineFilters() const {
  std::vector<sparql::FilterExprPtr> out;
  for (const PlacedFilter& pf : filters) {
    if (pf.placement == FilterPlacement::kEngine) out.push_back(pf.filter);
  }
  return out;
}

bool SubQuery::SharesVariableWith(const SubQuery& other,
                                  std::vector<std::string>* shared) const {
  std::vector<std::string> mine = Variables();
  std::vector<std::string> theirs = other.Variables();
  shared->clear();
  for (const std::string& v : mine) {
    if (std::find(theirs.begin(), theirs.end(), v) != theirs.end()) {
      shared->push_back(v);
    }
  }
  return !shared->empty();
}

std::string SubQuery::ToString() const {
  std::string out = "Service[" + source_id + "]";
  if (stars.size() > 1) {
    out += " (merged " + std::to_string(stars.size()) + " SSQs, H1)";
  }
  for (const StarSubQuery& star : stars) out += "\n    " + star.ToString();
  for (const PlacedFilter& pf : filters) {
    out += "\n    FILTER " + pf.filter->ToString() + " @" +
           (pf.placement == FilterPlacement::kSource ? "source" : "engine");
    if (!pf.reason.empty()) out += " (" + pf.reason + ")";
  }
  for (const auto& [var, terms] : instantiations) {
    out += "\n    ?" + var + " IN [" + std::to_string(terms.size()) +
           " terms]";
  }
  return out;
}

namespace {

// FNV-1a over the bytes of `s`, folded into `h`.
uint64_t FoldFnv1a(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

std::string SubQueryStatsKey(const SubQuery& sq) {
  std::string key = sq.source_id;
  for (const StarSubQuery& star : sq.stars) key += "|" + star.ToString();
  for (const sparql::FilterExprPtr& f : sq.SourceFilters()) {
    key += "|F:" + f->ToString();
  }
  if (!sq.instantiations.empty()) {
    // Digest the actual term values (SubQuery::ToString only renders term
    // *counts*, which would collide distinct probe bindings). The map is
    // ordered, so the digest is deterministic.
    uint64_t digest = 14695981039346656037ULL;
    for (const auto& [var, terms] : sq.instantiations) {
      digest = FoldFnv1a(digest, var);
      for (const rdf::Term& t : terms) digest = FoldFnv1a(digest, t.ToString());
    }
    key += "|I:" + std::to_string(sq.instantiations.size()) + ":" +
           std::to_string(digest);
  }
  return key;
}

}  // namespace lakefed::fed
