#include "fed/fingerprint.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <sstream>

namespace lakefed::fed {
namespace {

// Renders a filter expression in canonical form. Literal nodes are emitted
// through `lit`, so one renderer serves both passes: the sort pass maps
// every literal to a bare "$", the emit pass assigns numbered placeholders
// and collects the values.
void RenderFilter(const sparql::FilterExpr& f,
                  const std::function<std::string(const rdf::Term&)>& lit,
                  std::string* out) {
  using Kind = sparql::FilterExpr::Kind;
  switch (f.kind()) {
    case Kind::kVar:
      *out += "?" + f.var();
      return;
    case Kind::kLiteral:
      *out += lit(f.literal());
      return;
    case Kind::kCompare:
      *out += "(";
      RenderFilter(*f.args()[0], lit, out);
      *out += " " + sparql::CompareOpToString(f.compare_op()) + " ";
      RenderFilter(*f.args()[1], lit, out);
      *out += ")";
      return;
    case Kind::kAnd:
    case Kind::kOr:
      *out += "(";
      RenderFilter(*f.args()[0], lit, out);
      *out += f.kind() == Kind::kAnd ? " && " : " || ";
      RenderFilter(*f.args()[1], lit, out);
      *out += ")";
      return;
    case Kind::kNot:
      *out += "(!";
      RenderFilter(*f.args()[0], lit, out);
      *out += ")";
      return;
    case Kind::kFunction: {
      *out += sparql::FuncToString(f.func()) + "(";
      bool first = true;
      for (const sparql::FilterExprPtr& arg : f.args()) {
        if (!first) *out += ", ";
        first = false;
        RenderFilter(*arg, lit, out);
      }
      *out += ")";
      return;
    }
  }
}

std::string RenderPatternNode(
    const rdf::PatternNode& n,
    const std::function<std::string(const rdf::Term&)>& lit) {
  if (n.is_var) return "?" + n.var;
  // Constant IRIs/blanks stay in the template (source selection and join
  // pushdown reason about them structurally); literal constants lift out.
  if (n.term.is_iri()) return n.term.ToString();
  return lit(n.term);
}

std::string RenderPattern(
    const rdf::TriplePattern& p,
    const std::function<std::string(const rdf::Term&)>& lit) {
  return RenderPatternNode(p.subject, lit) + " " +
         RenderPatternNode(p.predicate, lit) + " " +
         RenderPatternNode(p.object, lit) + " .";
}

// Canonical order of a pattern/filter group: sort by the literal-blind
// rendering so two queries that interleave their patterns differently (or
// bind different constants) agree on the order, then emit in that order.
struct GroupRenderer {
  std::vector<std::string>* params;

  std::string LiteralBlind(const rdf::Term&) const { return "$"; }

  std::string Emit(const rdf::Term& t) {
    params->push_back(t.ToString());
    return "$" + std::to_string(params->size());
  }

  void Append(const std::vector<rdf::TriplePattern>& patterns,
              const std::vector<sparql::FilterExprPtr>& filters,
              const std::string& indent, std::string* out) {
    auto blind = [this](const rdf::Term& t) { return LiteralBlind(t); };
    auto emit = [this](const rdf::Term& t) { return Emit(t); };

    std::vector<size_t> order(patterns.size());
    std::iota(order.begin(), order.end(), 0);
    std::vector<std::string> keys(patterns.size());
    for (size_t i = 0; i < patterns.size(); ++i) {
      keys[i] = RenderPattern(patterns[i], blind);
    }
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return keys[a] < keys[b];
    });
    for (size_t idx : order) {
      *out += indent + RenderPattern(patterns[idx], emit) + "\n";
    }

    // FILTERs conjoin, so their order is semantically free: sort them too.
    std::vector<size_t> forder(filters.size());
    std::iota(forder.begin(), forder.end(), 0);
    std::vector<std::string> fkeys(filters.size());
    for (size_t i = 0; i < filters.size(); ++i) {
      RenderFilter(*filters[i], blind, &fkeys[i]);
    }
    std::stable_sort(forder.begin(), forder.end(), [&](size_t a, size_t b) {
      return fkeys[a] < fkeys[b];
    });
    for (size_t idx : forder) {
      *out += indent + "FILTER ";
      RenderFilter(*filters[idx], emit, out);
      *out += "\n";
    }
  }
};

}  // namespace

std::string PlanShapeDigest(const PlanOptions& options) {
  std::ostringstream out;
  out << "mode=" << PlanModeToString(options.mode)
      << "|h1=" << options.heuristic1_join_pushdown
      << "|h2=" << options.heuristic2_filter_placement
      // The *modelled* network decides Heuristic 2 (NominalLatencyMs), so
      // its identity is part of the plan shape; time_scale only stretches
      // the simulation and is deliberately excluded.
      << "|net=" << options.network.name << ":" << options.network.alpha
      << ":" << options.network.beta
      << "|slow=" << options.slow_network_threshold_ms << "|fp=";
  if (options.force_filter_placement.has_value()) {
    out << (*options.force_filter_placement == FilterPlacement::kSource
                ? "source"
                : "engine");
  } else {
    out << "h2";
  }
  out << "|dj=" << options.use_dependent_join
      << "|decomp=" << static_cast<int>(options.decomposition)
      << "|naive=" << options.naive_sql_translation
      << "|cost=" << options.use_cost_model;
  return out.str();
}

QueryFingerprint FingerprintQuery(const sparql::SelectQuery& query,
                                  const PlanOptions& options) {
  QueryFingerprint fp;
  fp.options_digest = PlanShapeDigest(options);

  std::string out = "SELECT";
  if (query.distinct) out += " DISTINCT";
  if (query.select_all && query.variables.empty()) {
    out += " *";
  } else {
    for (const std::string& v : query.variables) out += " ?" + v;
  }
  for (const sparql::SelectAggregate& agg : query.aggregates) {
    out += " (" + sparql::AggregateFuncToString(agg.func) + "(";
    if (agg.distinct) out += "DISTINCT ";
    out += agg.var.empty() ? "*" : "?" + agg.var;
    out += ") AS ?" + agg.alias + ")";
  }
  out += "\n";

  GroupRenderer renderer{&fp.params};
  out += "WHERE {\n";
  renderer.Append(query.patterns, query.filters, "  ", &out);
  for (const sparql::OptionalGroup& opt : query.optionals) {
    out += "  OPTIONAL {\n";
    renderer.Append(opt.patterns, opt.filters, "    ", &out);
    out += "  }\n";
  }
  // Sessions fingerprint the whole query, so union blocks render in place
  // (a plan covers every branch).
  for (const sparql::UnionBlock& block : query.unions) {
    out += "  UNION-BLOCK {\n";
    for (const sparql::UnionBlock::Branch& branch : block.branches) {
      out += "    BRANCH {\n";
      renderer.Append(branch.patterns, branch.filters, "      ", &out);
      out += "    }\n";
    }
    out += "  }\n";
  }
  out += "}\n";

  if (!query.group_by.empty()) {
    out += "GROUP BY";
    for (const std::string& v : query.group_by) out += " ?" + v;
    out += "\n";
  }
  if (!query.order_by.empty()) {
    out += "ORDER BY";
    for (const sparql::OrderCondition& c : query.order_by) {
      out += std::string(" ") + (c.ascending ? "ASC(?" : "DESC(?") +
             c.variable + ")";
    }
    out += "\n";
  }
  if (query.limit.has_value()) {
    out += "LIMIT " + std::to_string(*query.limit) + "\n";
  }
  fp.canonical = std::move(out);
  return fp;
}

std::string QueryFingerprint::CacheKey() const {
  std::string key = canonical;
  key += "\x01P:";
  for (const std::string& p : params) {
    key += p;
    key.push_back('\x02');
  }
  key += "\x01O:" + options_digest;
  return key;
}

std::string QueryFingerprint::ToText() const {
  std::string out = canonical;
  if (!params.empty()) {
    out += "-- params:\n";
    for (size_t i = 0; i < params.size(); ++i) {
      out += "--   $" + std::to_string(i + 1) + " = " + params[i] + "\n";
    }
  }
  out += "-- options: " + options_digest + "\n";
  return out;
}

}  // namespace lakefed::fed
