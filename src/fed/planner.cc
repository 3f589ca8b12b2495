#include "fed/planner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <set>

#include "fed/breaker.h"
#include "fed/decomposer.h"
#include "obs/span.h"
#include "stats/estimator.h"
#include "stats/stats_catalog.h"

namespace lakefed::fed {
namespace {

// Candidate sources for a star via RDF-MT predicate containment.
std::vector<std::string> SelectSources(const StarSubQuery& star,
                                       const mapping::RdfMtCatalog& catalog) {
  std::vector<std::string> predicates = star.ConstantPredicates();
  // rdf:type is implied by every molecule; drop it from the containment
  // check only if the star's class constrains the choice anyway.
  std::vector<const mapping::RdfMt*> molecules =
      catalog.Covering(star.class_iri, predicates);
  std::vector<std::string> sources;
  std::set<std::string> seen;
  for (const mapping::RdfMt* m : molecules) {
    for (const std::string& s : m->sources) {
      if (seen.insert(s).second) sources.push_back(s);
    }
  }
  return sources;
}

// Estimated number of rows a sub-query ships to the engine, derived from
// the molecule cardinalities in the source descriptions (MULDER-style) and
// shrunk by instantiations and source-placed filters. Smaller = more
// selective = joined earlier.
double EstimateTransferredRows(const SubQuery& sq,
                               const mapping::RdfMtCatalog& catalog) {
  constexpr double kDefaultCardinality = 1000;
  constexpr double kObjectConstantSelectivity = 0.1;
  constexpr double kSourceFilterSelectivity = 0.3;

  double rows = 0;
  for (const StarSubQuery& star : sq.stars) {
    double card = kDefaultCardinality;
    const mapping::RdfMt* molecule =
        star.class_iri.has_value() ? catalog.Find(*star.class_iri) : nullptr;
    if (molecule != nullptr) {
      card = std::max<double>(molecule->cardinality, 1.0);
    } else {
      auto covering = catalog.Covering(star.class_iri,
                                       star.ConstantPredicates());
      if (!covering.empty()) {
        card = 0;
        for (const mapping::RdfMt* m : covering) {
          card += static_cast<double>(m->cardinality);
        }
        card = std::max(card, 1.0);
      }
    }
    double selectivity = 1.0;
    if (!star.subject.is_var) selectivity = 1.0 / card;  // point lookup
    for (const rdf::TriplePattern& p : star.patterns) {
      bool is_type = !p.predicate.is_var &&
                     p.predicate.term == rdf::Term::Iri(rdf::kRdfType);
      if (!p.object.is_var && !is_type) {
        selectivity *= kObjectConstantSelectivity;
      }
    }
    // A merged (H1) sub-query ships the join result; approximate by the
    // largest participating star.
    rows = std::max(rows, card * selectivity);
  }
  for (const PlacedFilter& pf : sq.filters) {
    if (pf.placement == FilterPlacement::kSource) {
      rows *= kSourceFilterSelectivity;
    }
  }
  return std::max(rows, 1.0);
}

// --- cost-model helpers (PlanOptions::use_cost_model) ----------------------

// True if every variable of `filter` is produced by `star`.
bool StarCoversFilter(const StarSubQuery& star,
                      const sparql::FilterExpr& filter) {
  std::vector<std::string> fvars;
  filter.CollectVariables(&fvars);
  std::vector<std::string> svars = star.Variables();
  for (const std::string& v : fvars) {
    if (std::find(svars.begin(), svars.end(), v) == svars.end()) return false;
  }
  return true;
}

// Builds the estimator's fed-neutral view of one star routed to one source.
stats::PatternSpec SpecForStar(const StarSubQuery& star,
                               const std::string& source_id) {
  stats::PatternSpec spec;
  spec.source_id = source_id;
  if (star.class_iri.has_value()) spec.class_iri = *star.class_iri;
  spec.subject_is_constant = !star.subject.is_var;
  if (star.subject.is_var) spec.subject_var = star.subject.var;
  for (const rdf::TriplePattern& p : star.patterns) {
    if (p.predicate.is_var || !p.predicate.term.is_iri()) continue;
    std::string_view pred = p.predicate.term.value();
    if (pred == rdf::kRdfType) continue;
    stats::PatternPredicate pp;
    pp.predicate = pred;
    if (p.object.is_var) {
      spec.var_predicates.emplace(p.object.var, pred);
    } else {
      pp.object = p.object.term;
    }
    spec.predicates.push_back(std::move(pp));
  }
  return spec;
}

struct SubQueryEstimate {
  double shipped = 0;  // rows the wrapper sends over the network
  double output = 0;   // rows after the engine-side filters above the scan
};

// Statistics-based estimate of one (possibly H1-merged) sub-query. Merged
// stars combine through the containment join formula; each placed filter is
// charged to the first star covering its variables.
SubQueryEstimate EstimateSubQuery(const SubQuery& sq,
                                  const stats::CardinalityEstimator& est) {
  std::vector<stats::PatternSpec> specs;
  std::vector<const StarSubQuery*> stars;
  for (const StarSubQuery& star : sq.stars) {
    specs.push_back(SpecForStar(star, sq.source_id));
    stars.push_back(&star);
  }
  double engine_sel = 1.0;
  for (const PlacedFilter& pf : sq.filters) {
    if (pf.filter == nullptr) continue;
    for (size_t i = 0; i < stars.size(); ++i) {
      if (!StarCoversFilter(*stars[i], *pf.filter)) continue;
      if (pf.placement == FilterPlacement::kSource) {
        specs[i].source_filters.push_back(pf.filter);
      } else {
        engine_sel *= est.EstimateFilterSelectivity(specs[i], *pf.filter);
      }
      break;
    }
  }
  SubQueryEstimate out;
  double rows = est.EstimateShippedRows(specs[0]);
  for (size_t i = 1; i < specs.size(); ++i) {
    const double right = est.EstimateShippedRows(specs[i]);
    // Join variable: the first one the accumulated stars share with star i.
    std::string var;
    size_t left_idx = 0;
    std::vector<std::string> vi = stars[i]->Variables();
    for (size_t j = 0; j < i && var.empty(); ++j) {
      for (const std::string& v : stars[j]->Variables()) {
        if (std::find(vi.begin(), vi.end(), v) != vi.end()) {
          var = v;
          left_idx = j;
          break;
        }
      }
    }
    if (var.empty()) {
      rows *= right;  // cross product inside the source
      continue;
    }
    const double dv_l = est.EstimateDistinct(specs[left_idx], var, rows);
    const double dv_r = est.EstimateDistinct(specs[i], var, right);
    rows = stats::CardinalityEstimator::EstimateJoinRows(rows, right, dv_l,
                                                         dv_r);
  }
  out.shipped = rows;
  out.output = rows * engine_sel;
  return out;
}

std::string FormatEstimate(double rows) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", rows);
  return buf;
}

}  // namespace

bool VariableIsIndexed(const StarSubQuery& star, const std::string& var,
                       const SourceWrapper& wrapper) {
  if (star.SubjectIsVar(var)) {
    return star.class_iri.has_value()
               ? wrapper.IsSubjectKeyIndexed(*star.class_iri)
               : false;
  }
  auto predicate = star.PredicateOfObjectVar(var);
  if (!predicate.has_value() || !star.class_iri.has_value()) return false;
  return wrapper.IsPredicateAttributeIndexed(*star.class_iri, *predicate);
}

namespace {

// The solution modifiers over `root`, in SPARQL order: ORDER BY, the
// projection on the query's output variables, DISTINCT, LIMIT.
FedPlanPtr AddSolutionModifiers(FedPlanPtr root,
                                const sparql::SelectQuery& query) {
  if (!query.order_by.empty()) {
    root = MakeOrderByNode(std::move(root), query.order_by);
  }
  root = MakeProjectNode(std::move(root), query.EffectiveProjection());
  if (query.distinct) root = MakeDistinctNode(std::move(root));
  if (query.limit.has_value()) {
    root = MakeLimitNode(std::move(root), *query.limit);
  }
  return root;
}

// The aggregate-free query whose solutions an aggregate query groups: it
// projects the grouping keys and aggregated variables (every pattern
// variable for COUNT(*)), with the solution modifiers left to the plan above
// the aggregate.
sparql::SelectQuery AggregateInput(const sparql::SelectQuery& query) {
  sparql::SelectQuery inner = query;
  inner.aggregates.clear();
  inner.group_by.clear();
  inner.order_by.clear();
  inner.limit.reset();
  inner.distinct = false;
  inner.select_all = false;
  bool count_star = false;
  std::set<std::string> needed(query.group_by.begin(), query.group_by.end());
  for (const sparql::SelectAggregate& agg : query.aggregates) {
    if (agg.var.empty()) {
      count_star = true;
    } else {
      needed.insert(agg.var);
    }
  }
  inner.variables = count_star
                        ? query.PatternVariables()
                        : std::vector<std::string>(needed.begin(), needed.end());
  if (inner.variables.empty()) inner.variables = query.PatternVariables();
  return inner;
}

// Plans one union-free, aggregate-free query: source selection, the two
// heuristics, the join tree and the solution modifiers. Its phase spans
// hang under `plan_span`.
Result<FederatedPlan> PlanBranch(
    const sparql::SelectQuery& query, const mapping::RdfMtCatalog& catalog,
    const std::map<std::string, SourceWrapper*>& wrappers,
    const PlanOptions& options, uint64_t plan_span) {
  obs::SpanRecorder* recorder =
      options.collect_metrics ? options.spans : nullptr;
  obs::Span decompose_span(recorder, "decompose", plan_span);
  LAKEFED_ASSIGN_OR_RETURN(DecomposedQuery decomposed,
                           Decompose(query, options.decomposition));
  decompose_span.End();
  FederatedPlan plan;
  if (options.decomposition == DecompositionKind::kTripleBased) {
    plan.decisions.push_back("triple-based decomposition: " +
                             std::to_string(decomposed.stars.size()) +
                             " single-pattern sub-queries");
  }
  const bool aware = options.mode == PlanMode::kPhysicalDesignAware;
  const bool cost_model =
      options.use_cost_model && options.stats_catalog != nullptr;
  std::optional<stats::CardinalityEstimator> estimator;
  if (cost_model) {
    estimator.emplace(options.stats_catalog, &catalog);
    plan.decisions.push_back(
        "cost model: statistics-based planning over " +
        std::to_string(options.stats_catalog->num_sources()) +
        " analyzed source(s)");
  }

  // --- 1. Source selection ---------------------------------------------
  // Each star becomes one SubQuery per selected source; multiple sources
  // union. We keep, per star, the list of (source, SubQuery-index) to later
  // build service/union nodes.
  //
  // Sources whose circuit breaker is open (inside its cooldown) are routed
  // around while a healthy replica remains — a known-down endpoint should
  // not even be attempted. Once the cooldown elapses the source re-enters
  // plans so the executor can probe it. With no recorded failures the
  // registry is empty and source selection is untouched.
  auto route_around_open = [&](std::vector<std::string> sources)
      -> std::vector<std::string> {
    if (options.breakers == nullptr || sources.size() < 2) return sources;
    std::vector<std::string> healthy;
    for (const std::string& s : sources) {
      if (!options.breakers->ShouldAvoid(s)) healthy.push_back(s);
    }
    if (healthy.empty() || healthy.size() == sources.size()) return sources;
    for (const std::string& s : sources) {
      if (std::find(healthy.begin(), healthy.end(), s) == healthy.end()) {
        plan.decisions.push_back("breaker: routed around open source '" + s +
                                 "'");
      }
    }
    return healthy;
  };
  struct PlannedStar {
    StarSubQuery star;
    std::vector<std::string> sources;
  };
  std::vector<PlannedStar> planned;
  obs::Span select_span(recorder, "source-select", plan_span);
  for (StarSubQuery& star : decomposed.stars) {
    std::vector<std::string> sources =
        route_around_open(SelectSources(star, catalog));
    if (sources.empty()) {
      return Status::NotFound("no source can answer sub-query " +
                              star.ToString());
    }
    planned.push_back({std::move(star), std::move(sources)});
  }
  select_span.End();

  // --- 2. Heuristic 2: filter placement ----------------------------------
  // Decides, per star-associated filter, engine vs source. The decision is
  // shared by every source replica of the star.
  const bool slow_network =
      options.network.NominalLatencyMs() > options.slow_network_threshold_ms;
  auto place_filters = [&](const StarSubQuery& star,
                           const std::string& source_id)
      -> std::vector<PlacedFilter> {
    std::vector<PlacedFilter> out;
    SourceWrapper* wrapper = wrappers.at(source_id);
    for (const sparql::FilterExprPtr& filter : star.filters) {
      PlacedFilter pf;
      pf.filter = filter;
      if (!aware) {
        pf.placement = FilterPlacement::kEngine;
        pf.reason = "physical-design-unaware: operations at engine";
        out.push_back(std::move(pf));
        continue;
      }
      if (wrapper->kind() == SourceKind::kRdf) {
        pf.placement = FilterPlacement::kSource;
        pf.reason = "native SPARQL endpoint evaluates its own filters";
        out.push_back(std::move(pf));
        continue;
      }
      if (options.force_filter_placement.has_value()) {
        pf.placement = *options.force_filter_placement;
        pf.reason = "placement forced by options";
        out.push_back(std::move(pf));
        continue;
      }
      if (!options.heuristic2_filter_placement) {
        pf.placement = FilterPlacement::kEngine;
        pf.reason = "heuristic 2 disabled";
        out.push_back(std::move(pf));
        continue;
      }
      std::string var;
      bool simple = sparql::IsPushableToSql(*filter, &var);
      bool indexed = simple && VariableIsIndexed(star, var, *wrapper);
      if (cost_model && simple) {
        // Cost arbitration of Heuristic 2: push any translatable filter to
        // the source when the network injects delay and the filter actually
        // discards rows — even without an index, evaluating at the source
        // beats shipping rows that the engine would drop.
        const double sel = estimator->EstimateFilterSelectivity(
            SpecForStar(star, source_id), *filter);
        const bool has_latency = options.network.NominalLatencyMs() > 0;
        if (has_latency && sel < 0.95) {
          pf.placement = FilterPlacement::kSource;
          pf.reason = "cost: est selectivity " + FormatEstimate(sel) +
                      " cuts shipped rows over delayed network" +
                      (indexed ? " (indexed)" : " (no index)");
        } else {
          pf.placement = FilterPlacement::kEngine;
          pf.reason = has_latency
                          ? "cost: est selectivity " + FormatEstimate(sel) +
                                " saves nothing, evaluated at engine"
                          : "cost: no network delay, evaluated at engine";
        }
        out.push_back(std::move(pf));
        continue;
      }
      if (simple && indexed && slow_network) {
        pf.placement = FilterPlacement::kSource;
        pf.reason = "H2: attribute indexed and network slow (" +
                    options.network.name + ")";
      } else {
        pf.placement = FilterPlacement::kEngine;
        pf.reason = simple ? (indexed ? "H2: network fast, filter at engine"
                                      : "H2: attribute not indexed")
                           : "complex filter evaluated at engine";
      }
      out.push_back(std::move(pf));
    }
    return out;
  };

  // --- 3. Build one execution unit per star ------------------------------
  // A unit is either a single SubQuery (one source) or a union of them.
  struct Unit {
    // Invariant: single-source units hold exactly one SubQuery; multi-source
    // units hold one per source and always execute as a Union.
    std::vector<SubQuery> replicas;
    bool IsSingle() const { return replicas.size() == 1; }
    const SubQuery& front() const { return replicas.front(); }
    std::vector<std::string> Variables() const {
      return replicas.front().Variables();
    }
  };
  std::vector<Unit> units;
  for (PlannedStar& ps : planned) {
    Unit unit;
    for (const std::string& source : ps.sources) {
      SubQuery sq;
      sq.source_id = source;
      sq.naive_translation = options.naive_sql_translation;
      sq.stars.push_back(ps.star);
      sq.filters = place_filters(ps.star, source);
      unit.replicas.push_back(std::move(sq));
    }
    units.push_back(std::move(unit));
  }

  // Calibrated cost-model estimate of one sub-query: the raw statistics
  // estimate, overridden by runtime feedback from earlier executions of the
  // same sub-query (the output estimate scales proportionally).
  auto est_subquery = [&](const SubQuery& sq) -> SubQueryEstimate {
    SubQueryEstimate e = EstimateSubQuery(sq, *estimator);
    const double calibrated =
        options.stats_catalog->Calibrated(SubQueryStatsKey(sq), e.shipped);
    if (calibrated != e.shipped) {
      e.output = e.shipped > 0 ? e.output * (calibrated / e.shipped)
                               : calibrated;
      e.shipped = calibrated;
    }
    return e;
  };

  // --- 4. Heuristic 1: pushing down joins --------------------------------
  // Merge two single-source units into one SubQuery when: same relational
  // endpoint, the wrapper supports pushdown, they share a join variable and
  // the join attribute is indexed. Repeat to fixpoint.
  if (aware && options.heuristic1_join_pushdown) {
    bool merged = true;
    while (merged) {
      merged = false;
      for (size_t i = 0; i < units.size() && !merged; ++i) {
        if (!units[i].IsSingle()) continue;
        for (size_t j = i + 1; j < units.size() && !merged; ++j) {
          if (!units[j].IsSingle()) continue;
          SubQuery& a = units[i].replicas.front();
          SubQuery& b = units[j].replicas.front();
          if (a.source_id != b.source_id) continue;
          SourceWrapper* wrapper = wrappers.at(a.source_id);
          if (!wrapper->SupportsJoinPushdown()) continue;
          std::vector<std::string> shared;
          if (!a.SharesVariableWith(b, &shared)) continue;
          // The join attribute must be indexed on both sides (subjects are
          // PKs, hence indexed; objects need a secondary index).
          const std::string& var = shared.front();
          auto indexed_in = [&](const SubQuery& sq) {
            for (const StarSubQuery& star : sq.stars) {
              std::vector<std::string> vars = star.Variables();
              if (std::find(vars.begin(), vars.end(), var) == vars.end()) {
                continue;
              }
              if (VariableIsIndexed(star, var, *wrapper)) return true;
            }
            return false;
          };
          if (!indexed_in(a) || !indexed_in(b)) continue;
          // Both sides must construct ?var's terms identically, or SQL
          // column equality would not match RDF term equality.
          bool compatible = true;
          for (const StarSubQuery& sa : a.stars) {
            for (const StarSubQuery& sb : b.stars) {
              auto va = sa.Variables();
              auto vb = sb.Variables();
              if (std::find(va.begin(), va.end(), var) == va.end()) continue;
              if (std::find(vb.begin(), vb.end(), var) == vb.end()) continue;
              if (!wrapper->CanPushDownJoin(sa, sb, var)) compatible = false;
            }
          }
          if (!compatible) continue;
          if (cost_model) {
            // Cost arbitration of Heuristic 1: merging ships the join
            // result instead of both inputs — reject the merge when the
            // estimated join result is the larger transfer.
            SubQuery merged = a;
            merged.stars.insert(merged.stars.end(), b.stars.begin(),
                                b.stars.end());
            merged.filters.insert(merged.filters.end(), b.filters.begin(),
                                  b.filters.end());
            const double est_merged = est_subquery(merged).shipped;
            const double est_separate =
                est_subquery(a).shipped + est_subquery(b).shipped;
            if (est_merged > est_separate) {
              plan.decisions.push_back(
                  "cost: H1 merge on ?" + var + " over " + a.source_id +
                  " rejected (est " + FormatEstimate(est_merged) +
                  " merged vs " + FormatEstimate(est_separate) +
                  " separate rows shipped)");
              continue;
            }
          }
          plan.decisions.push_back(
              "H1: merged SSQs over " + a.source_id + " on ?" + var +
              " (join attribute indexed) -> join pushed to the source");
          a.stars.insert(a.stars.end(), b.stars.begin(), b.stars.end());
          a.filters.insert(a.filters.end(), b.filters.begin(),
                           b.filters.end());
          units.erase(units.begin() + static_cast<ptrdiff_t>(j));
          merged = true;
        }
      }
    }
  } else if (!aware) {
    plan.decisions.push_back(
        "physical-design-unaware: no join pushdown, all joins and filters "
        "at the engine");
  }

  // --- 5. Per-unit plan nodes (service [+ engine filter] [+ union]) ------
  auto build_unit_node = [&](const Unit& unit) -> FedPlanPtr {
    std::vector<FedPlanPtr> scans;
    for (const SubQuery& sq : unit.replicas) {
      FedPlanPtr node = MakeServiceNode(sq);
      // Union siblings serve the same molecule: they are the leaf's
      // failover alternates.
      for (const SubQuery& sibling : unit.replicas) {
        if (sibling.source_id != sq.source_id) {
          node->failover_sources.push_back(sibling.source_id);
        }
      }
      SubQueryEstimate estimate;
      if (cost_model) {
        estimate = est_subquery(sq);
        node->estimated_rows = estimate.shipped;
        node->stats_key = SubQueryStatsKey(sq);
      }
      std::vector<sparql::FilterExprPtr> engine_filters = sq.EngineFilters();
      if (!engine_filters.empty()) {
        node = MakeFilterNode(std::move(node), std::move(engine_filters));
        if (cost_model) node->estimated_rows = estimate.output;
      }
      scans.push_back(std::move(node));
    }
    if (scans.size() == 1) return std::move(scans.front());
    double union_estimate = 0;
    if (cost_model) {
      for (const FedPlanPtr& scan : scans) {
        union_estimate += std::max(scan->estimated_rows, 0.0);
      }
    }
    FedPlanPtr node = MakeUnionNode(std::move(scans));
    if (cost_model) node->estimated_rows = union_estimate;
    return node;
  };

  // --- 6. Join-tree construction (greedy, smallest estimate first) -------
  // With the cost model on, unit estimates come from the statistics and the
  // greedy criterion is the estimated *join output* against the current
  // tree; otherwise the molecule-cardinality heuristic orders units.
  std::vector<size_t> remaining(units.size());
  for (size_t i = 0; i < units.size(); ++i) remaining[i] = i;
  std::vector<double> unit_shipped(units.size(), -1.0);
  std::vector<double> unit_output(units.size(), -1.0);
  if (cost_model) {
    for (size_t i = 0; i < units.size(); ++i) {
      double shipped = 0, output = 0;
      for (const SubQuery& sq : units[i].replicas) {
        SubQueryEstimate e = est_subquery(sq);
        shipped += e.shipped;
        output += e.output;
      }
      unit_shipped[i] = shipped;
      unit_output[i] = output;
    }
  }
  auto rows_of = [&](size_t idx) {
    if (cost_model) return unit_output[idx];
    return EstimateTransferredRows(units[idx].front(), catalog);
  };
  // Estimated distinct values of `var` among one unit's output rows.
  auto unit_var_distinct = [&](size_t idx, const std::string& var,
                               double rows) -> double {
    for (const SubQuery& sq : units[idx].replicas) {
      for (const StarSubQuery& star : sq.stars) {
        std::vector<std::string> vars = star.Variables();
        if (std::find(vars.begin(), vars.end(), var) == vars.end()) continue;
        return estimator->EstimateDistinct(SpecForStar(star, sq.source_id),
                                           var, rows);
      }
    }
    return rows;
  };
  std::sort(remaining.begin(), remaining.end(),
            [&](size_t a, size_t b) { return rows_of(a) < rows_of(b); });

  size_t first = remaining.front();
  remaining.erase(remaining.begin());
  FedPlanPtr root = build_unit_node(units[first]);
  std::vector<std::string> bound_vars = units[first].Variables();
  // Cost-model running state: estimated rows of the current tree and the
  // estimated distinct values of each bound variable.
  double est_tree = cost_model ? unit_output[first] : -1.0;
  std::map<std::string, double> tree_distinct;
  if (cost_model) {
    for (const std::string& v : bound_vars) {
      tree_distinct[v] =
          std::min(unit_var_distinct(first, v, est_tree),
                   std::max(est_tree, 1.0));
    }
  }

  while (!remaining.empty()) {
    // Among units sharing a variable with the current tree, pick the most
    // selective (cost model: the smallest estimated join output); fall back
    // to a cross product if none connects.
    size_t pick_pos = remaining.size();
    std::vector<std::string> pick_shared;
    double pick_join_est = -1.0;
    for (size_t pos = 0; pos < remaining.size(); ++pos) {
      const Unit& unit = units[remaining[pos]];
      std::vector<std::string> shared;
      for (const std::string& v : unit.Variables()) {
        if (std::find(bound_vars.begin(), bound_vars.end(), v) !=
            bound_vars.end()) {
          shared.push_back(v);
        }
      }
      if (shared.empty()) continue;
      if (cost_model) {
        const size_t idx = remaining[pos];
        const std::string& v = shared.front();
        auto it = tree_distinct.find(v);
        const double dv_tree = it != tree_distinct.end() ? it->second
                                                         : est_tree;
        const double dv_unit = unit_var_distinct(idx, v, unit_output[idx]);
        const double join_est = stats::CardinalityEstimator::EstimateJoinRows(
            est_tree, unit_output[idx], dv_tree, dv_unit);
        if (pick_pos == remaining.size() || join_est < pick_join_est) {
          pick_pos = pos;
          pick_shared = shared;
          pick_join_est = join_est;
        }
      } else if (pick_pos == remaining.size() ||
                 rows_of(remaining[pos]) < rows_of(remaining[pick_pos])) {
        pick_pos = pos;
        pick_shared = shared;
      }
    }
    if (pick_pos == remaining.size()) {
      pick_pos = 0;  // cross product
      pick_shared.clear();
      if (cost_model) {
        pick_join_est = est_tree * std::max(unit_output[remaining[0]], 0.0);
      }
      plan.decisions.push_back("no shared variable: cross product join");
    }
    size_t pick = remaining[pick_pos];
    remaining.erase(remaining.begin() + static_cast<ptrdiff_t>(pick_pos));

    const Unit& unit = units[pick];
    auto index_supported_bind = [&] {
      // dependent joins pay off when the bound variable probes an index
      SourceWrapper* wrapper = wrappers.at(unit.front().source_id);
      for (const StarSubQuery& star : unit.front().stars) {
        std::vector<std::string> vars = star.Variables();
        if (std::find(vars.begin(), vars.end(), pick_shared.front()) ==
            vars.end()) {
          continue;
        }
        if (VariableIsIndexed(star, pick_shared.front(), *wrapper)) {
          return true;
        }
      }
      return false;
    };
    const bool bind_eligible = unit.IsSingle() && !pick_shared.empty() &&
                               unit.front().EngineFilters().empty();
    bool dependent = options.use_dependent_join && bind_eligible &&
                     index_supported_bind();
    if (cost_model && !dependent && bind_eligible &&
        pick_join_est < unit_shipped[pick]) {
      // Cost decision: a bind join ships only the ~join-result rows from
      // this source instead of its full extension.
      dependent = true;
      plan.decisions.push_back(
          "cost: dependent join on ?" + pick_shared.front() + " into " +
          unit.front().source_id + " (est join " +
          FormatEstimate(pick_join_est) + " < est shipped " +
          FormatEstimate(unit_shipped[pick]) + " rows)");
    }
    if (dependent) {
      plan.decisions.push_back("dependent join on ?" + pick_shared.front() +
                               " into " + unit.front().source_id);
      root = MakeDependentJoinNode(std::move(root), unit.front(),
                                   pick_shared);
    } else {
      root = MakeJoinNode(std::move(root), build_unit_node(unit),
                          pick_shared);
    }
    if (cost_model) {
      root->estimated_rows = pick_join_est;
      est_tree = std::max(pick_join_est, 0.0);
    }
    for (const std::string& v : unit.Variables()) {
      if (std::find(bound_vars.begin(), bound_vars.end(), v) ==
          bound_vars.end()) {
        bound_vars.push_back(v);
      }
      if (cost_model) {
        const double dv = std::min(
            unit_var_distinct(pick, v, unit_output[pick]),
            std::max(est_tree, 1.0));
        auto it = tree_distinct.find(v);
        if (it == tree_distinct.end() || dv < it->second) {
          tree_distinct[v] = dv;
        }
      }
    }
  }

  // --- 7. OPTIONAL groups: left joins after the main tree ----------------
  for (StarSubQuery& star : decomposed.optional_stars) {
    std::vector<std::string> sources =
        route_around_open(SelectSources(star, catalog));
    if (sources.empty()) {
      return Status::NotFound("no source can answer OPTIONAL sub-query " +
                              star.ToString());
    }
    std::vector<FedPlanPtr> scans;
    for (const std::string& source : sources) {
      SubQuery sq;
      sq.source_id = source;
      sq.naive_translation = options.naive_sql_translation;
      sq.stars.push_back(star);
      sq.filters = place_filters(star, source);
      FedPlanPtr node = MakeServiceNode(sq);
      for (const std::string& sibling : sources) {
        if (sibling != source) node->failover_sources.push_back(sibling);
      }
      SubQueryEstimate estimate;
      if (cost_model) {
        estimate = est_subquery(sq);
        node->estimated_rows = estimate.shipped;
        node->stats_key = SubQueryStatsKey(sq);
      }
      std::vector<sparql::FilterExprPtr> engine_filters = sq.EngineFilters();
      if (!engine_filters.empty()) {
        node = MakeFilterNode(std::move(node), std::move(engine_filters));
        if (cost_model) node->estimated_rows = estimate.output;
      }
      scans.push_back(std::move(node));
    }
    FedPlanPtr right = scans.size() == 1 ? std::move(scans.front())
                                         : MakeUnionNode(std::move(scans));
    std::vector<std::string> shared;
    for (const std::string& v : star.Variables()) {
      if (std::find(bound_vars.begin(), bound_vars.end(), v) !=
          bound_vars.end()) {
        shared.push_back(v);
      }
    }
    plan.decisions.push_back("OPTIONAL star left-joined on " +
                             std::to_string(shared.size()) +
                             " shared variable(s)");
    root = MakeLeftJoinNode(std::move(root), std::move(right), shared);
    if (cost_model) root->estimated_rows = est_tree;  // outer side preserved
    for (const std::string& v : star.Variables()) {
      if (std::find(bound_vars.begin(), bound_vars.end(), v) ==
          bound_vars.end()) {
        bound_vars.push_back(v);
      }
    }
  }

  // --- 8. Global filters, ordering, projection, modifiers ----------------
  if (!decomposed.global_filters.empty()) {
    root = MakeFilterNode(std::move(root), decomposed.global_filters);
  }
  plan.variables = query.EffectiveProjection();
  plan.root = AddSolutionModifiers(std::move(root), query);
  return plan;
}

// Plans the whole query as one tree. An aggregate groups the plan of its
// input query at the mediator; UNION branches, each planned as a query of
// its own, merge under one Union node. The solution modifiers go on top.
Result<FederatedPlan> PlanQuery(
    const sparql::SelectQuery& query, const mapping::RdfMtCatalog& catalog,
    const std::map<std::string, SourceWrapper*>& wrappers,
    const PlanOptions& options, uint64_t plan_span) {
  if (query.HasAggregates()) {
    LAKEFED_ASSIGN_OR_RETURN(
        FederatedPlan plan,
        PlanQuery(AggregateInput(query), catalog, wrappers, options,
                  plan_span));
    plan.decisions.push_back(
        "aggregate: GROUP BY evaluated at the mediator over the federated "
        "solutions");
    plan.root = AddSolutionModifiers(
        MakeAggregateNode(std::move(plan.root), query.group_by,
                          query.aggregates),
        query);
    plan.variables = query.EffectiveProjection();
    return plan;
  }
  if (query.unions.empty()) {
    return PlanBranch(query, catalog, wrappers, options, plan_span);
  }
  std::vector<sparql::SelectQuery> branches = sparql::ExpandUnions(query);
  // Branches also project the ORDER BY variables, so the sort above the
  // union sees them; the projection above the sort drops them again.
  std::vector<std::string> branch_vars = query.EffectiveProjection();
  for (const sparql::OrderCondition& cond : query.order_by) {
    if (std::find(branch_vars.begin(), branch_vars.end(), cond.variable) ==
        branch_vars.end()) {
      branch_vars.push_back(cond.variable);
    }
  }
  FederatedPlan plan;
  plan.decisions.push_back("UNION: " + std::to_string(branches.size()) +
                           " branch combination(s) planned under one Union");
  std::vector<FedPlanPtr> roots;
  for (size_t i = 0; i < branches.size(); ++i) {
    branches[i].variables = branch_vars;
    LAKEFED_ASSIGN_OR_RETURN(
        FederatedPlan branch,
        PlanBranch(branches[i], catalog, wrappers, options, plan_span));
    for (const std::string& d : branch.decisions) {
      plan.decisions.push_back("branch " + std::to_string(i + 1) + ": " + d);
    }
    roots.push_back(std::move(branch.root));
  }
  plan.variables = query.EffectiveProjection();
  plan.root = AddSolutionModifiers(MakeUnionNode(std::move(roots)), query);
  return plan;
}

}  // namespace

Result<FederatedPlan> BuildPlan(
    const sparql::SelectQuery& query, const mapping::RdfMtCatalog& catalog,
    const std::map<std::string, SourceWrapper*>& wrappers,
    const PlanOptions& options) {
  obs::Span plan_span(options.collect_metrics ? options.spans : nullptr,
                      "plan", options.parent_span);
  return PlanQuery(query, catalog, wrappers, options, plan_span.id());
}

}  // namespace lakefed::fed
