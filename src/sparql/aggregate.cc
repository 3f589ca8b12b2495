#include "sparql/aggregate.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <set>

#include "sparql/filter_expr.h"

namespace lakefed::sparql {
namespace {

rdf::Term NumberTerm(double v, bool integral) {
  if (integral) {
    return rdf::Term::Literal(std::to_string(static_cast<int64_t>(v)),
                              rdf::kXsdInteger);
  }
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return rdf::Term::Literal(buf, rdf::kXsdDouble);
}

struct AggState {
  int64_t count = 0;
  double sum = 0;
  bool numeric_ok = true;  // no non-numeric bound value seen
  const rdf::Term* min = nullptr;
  const rdf::Term* max = nullptr;
  std::set<std::string> distinct;

  void Add(const rdf::Term& term, bool distinct_only) {
    if (distinct_only && !distinct.insert(term.ToString()).second) return;
    ++count;
    auto n = TryNumericTerm(term);
    if (n.has_value()) {
      sum += *n;
    } else {
      numeric_ok = false;
    }
    if (min == nullptr || CompareTermsSparql(term, *min) < 0) min = &term;
    if (max == nullptr || CompareTermsSparql(term, *max) > 0) max = &term;
  }

  // nullopt = alias stays unbound.
  std::optional<rdf::Term> Finish(const SelectAggregate& agg) const {
    switch (agg.func) {
      case SelectAggregate::Func::kCount:
        return NumberTerm(static_cast<double>(count), /*integral=*/true);
      case SelectAggregate::Func::kSum:
      case SelectAggregate::Func::kAvg: {
        if (count == 0 || !numeric_ok) return std::nullopt;
        double v = agg.func == SelectAggregate::Func::kSum
                       ? sum
                       : sum / static_cast<double>(count);
        return NumberTerm(v, /*integral=*/false);
      }
      case SelectAggregate::Func::kMin:
        return min == nullptr ? std::nullopt
                              : std::optional<rdf::Term>(*min);
      case SelectAggregate::Func::kMax:
        return max == nullptr ? std::nullopt
                              : std::optional<rdf::Term>(*max);
    }
    return std::nullopt;
  }
};

}  // namespace

std::vector<rdf::Binding> AggregateSolutions(
    const std::vector<rdf::Binding>& solutions,
    const std::vector<std::string>& group_by,
    const std::vector<SelectAggregate>& aggregates) {
  struct Group {
    rdf::Binding keys;
    std::vector<AggState> states;
  };
  std::map<std::string, Group> groups;
  for (const rdf::Binding& solution : solutions) {
    std::string key;
    rdf::Binding keys;
    for (const std::string& var : group_by) {
      auto it = solution.find(var);
      if (it != solution.end()) {
        key += it->second.ToString();
        keys.emplace(var, it->second);
      } else {
        key += "~unbound~";
      }
      key.push_back('\x01');
    }
    auto [it, inserted] = groups.try_emplace(key);
    if (inserted) {
      it->second.keys = std::move(keys);
      it->second.states.resize(aggregates.size());
    }
    for (size_t i = 0; i < aggregates.size(); ++i) {
      const SelectAggregate& agg = aggregates[i];
      if (agg.var.empty()) {  // COUNT(*)
        if (agg.distinct) {
          std::string row_key;
          for (const auto& [var, term] : solution) {
            row_key += var + "\x02" + term.ToString() + "\x01";
          }
          if (!it->second.states[i].distinct.insert(row_key).second) {
            continue;
          }
        }
        ++it->second.states[i].count;
        continue;
      }
      auto bound = solution.find(agg.var);
      if (bound == solution.end()) continue;  // unbound is skipped
      it->second.states[i].Add(bound->second, agg.distinct);
    }
  }
  // A global aggregation over no solutions still yields one row.
  if (groups.empty() && group_by.empty()) {
    Group global;
    global.states.resize(aggregates.size());
    groups.emplace("", std::move(global));
  }

  std::vector<rdf::Binding> out;
  out.reserve(groups.size());
  for (auto& [key, group] : groups) {
    rdf::Binding row = group.keys;
    for (size_t i = 0; i < aggregates.size(); ++i) {
      std::optional<rdf::Term> value = group.states[i].Finish(aggregates[i]);
      if (value.has_value()) row.emplace(aggregates[i].alias, *value);
    }
    out.push_back(std::move(row));
  }
  return out;
}

void SortBindings(std::vector<rdf::Binding>* rows,
                  const std::vector<OrderCondition>& order_by) {
  if (order_by.empty()) return;
  std::stable_sort(
      rows->begin(), rows->end(),
      [&](const rdf::Binding& a, const rdf::Binding& b) {
        for (const OrderCondition& cond : order_by) {
          auto ita = a.find(cond.variable);
          auto itb = b.find(cond.variable);
          bool ba = ita != a.end(), bb = itb != b.end();
          int c;
          if (!ba && !bb) {
            c = 0;
          } else if (ba != bb) {
            c = ba ? 1 : -1;  // unbound sorts first
          } else {
            c = CompareTermsSparql(ita->second, itb->second);
          }
          if (c != 0) return cond.ascending ? c < 0 : c > 0;
        }
        return false;
      });
}

}  // namespace lakefed::sparql
