#include "fed/meta_source.h"

#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "fed/engine.h"
#include "rdf/bgp.h"
#include "sparql/filter_expr.h"

namespace lakefed::fed {

namespace {

constexpr char kSubjectRoot[] = "http://lakefed.io/sys/";

rdf::Term SysIri(const std::string& local) {
  return rdf::Term::Iri(std::string(kSysNamespace) + local);
}

rdf::Term Subject(const std::string& table, const std::string& key) {
  return rdf::Term::Iri(std::string(kSubjectRoot) + table + "/" + key);
}

rdf::Term TypeIri() { return rdf::Term::Iri(rdf::kRdfType); }

rdf::Term Lit(const std::string& s) { return rdf::Term::Literal(s); }

rdf::Term Lit(uint64_t v) { return Lit(std::to_string(v)); }

rdf::Term Lit(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return Lit(std::string(buf));
}

// class local name -> table name ("Metric" -> "metrics").
const std::map<std::string, std::string>& ClassToTable() {
  static const std::map<std::string, std::string> kMap = {
      {"Metric", "metrics"},   {"Source", "sources"}, {"Query", "queries"},
      {"Cache", "cache"},      {"Scheduler", "scheduler"},
  };
  return kMap;
}

std::string TableClass(const std::string& table) {
  for (const auto& [cls, t] : ClassToTable()) {
    if (t == table) return std::string(kSysNamespace) + cls;
  }
  return "";
}

}  // namespace

MetaSource::MetaSource(const FederatedEngine* engine, Providers providers)
    : engine_(engine), providers_(std::move(providers)) {}

const std::vector<std::string>& MetaSource::Tables() {
  static const std::vector<std::string> kTables = {
      "metrics", "sources", "queries", "cache", "scheduler"};
  return kTables;
}

std::vector<mapping::RdfMt> MetaSource::Molecules() const {
  auto molecule = [this](const std::string& cls,
                         std::set<std::string> locals) {
    mapping::RdfMt mt;
    mt.class_iri = std::string(kSysNamespace) + cls;
    mt.predicates.insert(rdf::kRdfType);
    for (const std::string& local : locals) {
      mt.predicates.insert(std::string(kSysNamespace) + local);
    }
    mt.sources = {id_};
    // Nominal: the tables are tiny, rebuilt per query; this only seeds the
    // mediator's join ordering when sys stars join data stars.
    mt.cardinality = 64;
    return mt;
  };
  return {
      molecule("Metric", {"name", "kind", "value", "count", "sum", "min",
                          "max", "p50", "p95", "p99"}),
      molecule("Source",
               {"id", "kind", "classes", "cardinality", "breakerState",
                "latencySamples", "latencyP50", "latencyP95", "latencyP99",
                "statsEpoch", "entities", "attributes", "ndv"}),
      molecule("Query", {"fingerprint", "tenant", "status", "totalMs",
                         "firstRowMs", "rows", "slow", "partial",
                         "wallClockS", "count"}),
      molecule("Cache", {"name", "hits", "misses", "inserts", "evictions",
                         "invalidations", "entries", "bytes", "hitRate"}),
      molecule("Scheduler",
               {"name", "workers", "ioThreads", "steps", "steals", "wakes",
                "ioJobs", "yields", "blocks", "done", "parks", "unparks",
                "injectorDepth", "ioQueueDepth", "worker", "dequeDepth"}),
  };
}

void MetaSource::PopulateMetrics(rdf::TripleStore* store) const {
  const obs::MetricsSnapshot snapshot = engine_->MetricsSnapshot();
  auto row = [&](const std::string& name, const char* kind) {
    rdf::Term s = Subject("metric", name);
    store->Add(s, TypeIri(), SysIri("Metric"));
    store->Add(s, SysIri("name"), Lit(name));
    store->Add(s, SysIri("kind"), Lit(std::string(kind)));
    return s;
  };
  for (const auto& c : snapshot.counters) {
    store->Add(row(c.name, "counter"), SysIri("value"), Lit(c.value));
  }
  for (const auto& g : snapshot.gauges) {
    store->Add(row(g.name, "gauge"), SysIri("value"),
               Lit(std::to_string(g.value)));
  }
  for (const auto& h : snapshot.histograms) {
    rdf::Term s = row(h.name, "histogram");
    store->Add(s, SysIri("count"), Lit(h.count));
    store->Add(s, SysIri("sum"), Lit(h.sum));
    store->Add(s, SysIri("min"), Lit(h.min));
    store->Add(s, SysIri("max"), Lit(h.max));
    store->Add(s, SysIri("p50"), Lit(h.p50));
    store->Add(s, SysIri("p95"), Lit(h.p95));
    store->Add(s, SysIri("p99"), Lit(h.p99));
  }
}

void MetaSource::PopulateSources(rdf::TripleStore* store) const {
  // Molecule coverage per source, from the engine's catalog.
  struct Coverage {
    uint64_t classes = 0;
    uint64_t cardinality = 0;
  };
  std::map<std::string, Coverage> coverage;
  for (const auto& [cls, mt] : engine_->catalog().molecules()) {
    for (const std::string& source : mt.sources) {
      if (source == id_) continue;  // the meta-source itself stays out
      Coverage& c = coverage[source];
      ++c.classes;
      c.cardinality += mt.cardinality;
    }
  }
  const auto latency = engine_->latency()->Snapshot();
  const stats::StatsCatalog* stats = engine_->stats_catalog();
  for (const auto& [source, cov] : coverage) {
    rdf::Term s = Subject("source", source);
    store->Add(s, TypeIri(), SysIri("Source"));
    store->Add(s, SysIri("id"), Lit(source));
    const SourceWrapper* wrapper = engine_->wrapper(source);
    if (wrapper != nullptr) {
      store->Add(s, SysIri("kind"), Lit(SourceKindToString(wrapper->kind())));
    }
    store->Add(s, SysIri("classes"), Lit(cov.classes));
    store->Add(s, SysIri("cardinality"), Lit(cov.cardinality));
    store->Add(s, SysIri("breakerState"),
               Lit(BreakerStateToString(engine_->breakers()->state(source))));
    auto lat = latency.find(source);
    if (lat != latency.end()) {
      store->Add(s, SysIri("latencySamples"), Lit(lat->second.samples));
      store->Add(s, SysIri("latencyP50"), Lit(lat->second.p50));
      store->Add(s, SysIri("latencyP95"), Lit(lat->second.p95));
      store->Add(s, SysIri("latencyP99"), Lit(lat->second.p99));
    }
    if (stats != nullptr) {
      store->Add(s, SysIri("statsEpoch"), Lit(stats->epoch()));
      if (const stats::SourceStats* ss = stats->FindSource(source)) {
        uint64_t entities = 0, attributes = 0, ndv = 0;
        for (const auto& [cls, cs] : ss->classes) {
          entities += cs.entity_count;
          attributes += cs.attributes.size();
          for (const auto& [pred, as] : cs.attributes) {
            ndv += as.distinct_objects;
          }
        }
        store->Add(s, SysIri("entities"), Lit(entities));
        store->Add(s, SysIri("attributes"), Lit(attributes));
        store->Add(s, SysIri("ndv"), Lit(ndv));
      }
    }
  }
}

void MetaSource::PopulateQueries(rdf::TripleStore* store) const {
  // Live-session count, derived from the engine counters: sessions created
  // minus sessions finished (ok + error). Includes the session executing
  // this very sub-query.
  const obs::MetricsSnapshot snapshot = engine_->MetricsSnapshot();
  auto counter = [&](const char* name) -> uint64_t {
    const auto* c = snapshot.FindCounter(name);
    return c == nullptr ? 0 : c->value;
  };
  const uint64_t sessions = counter("engine.sessions");
  const uint64_t finished =
      counter("engine.queries_ok") + counter("engine.queries_error");
  rdf::Term active = Subject("query", "active");
  store->Add(active, TypeIri(), SysIri("Query"));
  store->Add(active, SysIri("status"), Lit(std::string("active")));
  store->Add(active, SysIri("count"),
             Lit(sessions > finished ? sessions - finished : 0));

  const obs::QueryLog* log = engine_->query_log();
  if (log == nullptr) return;
  for (const obs::QueryLogRecord& r : log->Snapshot()) {
    rdf::Term s = Subject("query", std::to_string(r.id));
    store->Add(s, TypeIri(), SysIri("Query"));
    store->Add(s, SysIri("fingerprint"), Lit(r.fingerprint));
    if (!r.tenant.empty()) store->Add(s, SysIri("tenant"), Lit(r.tenant));
    store->Add(s, SysIri("status"), Lit(r.status));
    store->Add(s, SysIri("totalMs"), Lit(r.total_ms));
    store->Add(s, SysIri("firstRowMs"), Lit(r.first_row_ms));
    store->Add(s, SysIri("rows"), Lit(r.rows));
    store->Add(s, SysIri("slow"), Lit(std::string(r.slow ? "true" : "false")));
    store->Add(s, SysIri("partial"),
               Lit(std::string(r.partial ? "true" : "false")));
    store->Add(s, SysIri("wallClockS"), Lit(r.wall_clock_s));
  }
}

void MetaSource::PopulateCache(rdf::TripleStore* store) const {
  auto row = [&](const std::string& name, const CacheStats& cs) {
    rdf::Term s = Subject("cache", name);
    store->Add(s, TypeIri(), SysIri("Cache"));
    store->Add(s, SysIri("name"), Lit(name));
    store->Add(s, SysIri("hits"), Lit(cs.hits));
    store->Add(s, SysIri("misses"), Lit(cs.misses));
    store->Add(s, SysIri("inserts"), Lit(cs.inserts));
    store->Add(s, SysIri("evictions"), Lit(cs.evictions));
    store->Add(s, SysIri("invalidations"), Lit(cs.invalidations));
    store->Add(s, SysIri("entries"), Lit(cs.entries));
    store->Add(s, SysIri("bytes"), Lit(cs.bytes));
    const uint64_t lookups = cs.hits + cs.misses;
    store->Add(s, SysIri("hitRate"),
               Lit(lookups == 0 ? 0.0
                                : static_cast<double>(cs.hits) /
                                      static_cast<double>(lookups)));
  };
  row("plan", engine_->plan_cache()->plan_stats());
  row("parsed", engine_->plan_cache()->parsed_stats());
  row("answer", engine_->answer_cache()->stats());
}

void MetaSource::PopulateScheduler(rdf::TripleStore* store) const {
  if (providers_.scheduler == nullptr) return;
  const SchedulerInfo info = providers_.scheduler();
  rdf::Term s = Subject("scheduler", "pool");
  store->Add(s, TypeIri(), SysIri("Scheduler"));
  store->Add(s, SysIri("name"), Lit(std::string("pool")));
  store->Add(s, SysIri("workers"), Lit(static_cast<uint64_t>(info.workers)));
  store->Add(s, SysIri("ioThreads"),
             Lit(static_cast<uint64_t>(info.io_threads)));
  store->Add(s, SysIri("steps"), Lit(info.steps));
  store->Add(s, SysIri("steals"), Lit(info.steals));
  store->Add(s, SysIri("wakes"), Lit(info.wakes));
  store->Add(s, SysIri("ioJobs"), Lit(info.io_jobs));
  store->Add(s, SysIri("yields"), Lit(info.yields));
  store->Add(s, SysIri("blocks"), Lit(info.blocks));
  store->Add(s, SysIri("done"), Lit(info.done));
  store->Add(s, SysIri("parks"), Lit(info.parks));
  store->Add(s, SysIri("unparks"), Lit(info.unparks));
  store->Add(s, SysIri("injectorDepth"),
             Lit(static_cast<uint64_t>(info.injector_depth)));
  store->Add(s, SysIri("ioQueueDepth"),
             Lit(static_cast<uint64_t>(info.io_queue_depth)));
  for (size_t i = 0; i < info.deque_depths.size(); ++i) {
    rdf::Term w = Subject("scheduler", "worker/" + std::to_string(i));
    store->Add(w, TypeIri(), SysIri("Scheduler"));
    store->Add(w, SysIri("name"), Lit("worker/" + std::to_string(i)));
    store->Add(w, SysIri("worker"), Lit(static_cast<uint64_t>(i)));
    store->Add(w, SysIri("dequeDepth"),
               Lit(static_cast<uint64_t>(info.deque_depths[i])));
  }
}

void MetaSource::BuildSnapshot(const std::string& table,
                               rdf::TripleStore* store) const {
  const bool all = table.empty();
  if (all || table == "metrics") PopulateMetrics(store);
  if (all || table == "sources") PopulateSources(store);
  if (all || table == "queries") PopulateQueries(store);
  if (all || table == "cache") PopulateCache(store);
  if (all || table == "scheduler") PopulateScheduler(store);
}

Status MetaSource::Execute(const SubQuery& subquery,
                           const WrapperContext& ctx) {
  // Build only the tables the stars name; a star without a constant sys
  // class falls back to the full snapshot.
  std::set<std::string> tables;
  bool all = false;
  for (const StarSubQuery& star : subquery.stars) {
    std::string table;
    if (star.class_iri.has_value()) {
      const std::string& cls = *star.class_iri;
      const std::string ns(kSysNamespace);
      if (cls.rfind(ns, 0) == 0) {
        auto it = ClassToTable().find(cls.substr(ns.size()));
        if (it != ClassToTable().end()) table = it->second;
      }
    }
    if (table.empty()) {
      all = true;
    } else {
      tables.insert(table);
    }
  }
  rdf::TripleStore store;
  if (all) {
    BuildSnapshot("", &store);
  } else {
    for (const std::string& table : tables) BuildSnapshot(table, &store);
  }

  // From here on this is the standard RDF wrapper evaluation (see
  // wrapper/rdf_wrapper.cc): BGP scan with instantiation sets and source
  // filters, projected rows shipped through the emitter.
  std::vector<rdf::TriplePattern> patterns;
  for (const StarSubQuery& star : subquery.stars) {
    patterns.insert(patterns.end(), star.patterns.begin(),
                    star.patterns.end());
  }
  if (patterns.empty()) {
    return Status::InvalidArgument("empty sub-query for source " + id_);
  }
  std::vector<sparql::FilterExprPtr> filters = subquery.SourceFilters();
  InstantiationFilter instantiations(subquery);
  std::vector<std::string> variables = subquery.Variables();
  BatchEmitter emitter(ctx);
  Status scan = rdf::EvaluateBgpVisit(
      store, patterns, [&](const rdf::Binding& binding) {
        if (ctx.token.IsCancelled()) return false;
        if (!instantiations.Allows(binding)) return true;
        for (const sparql::FilterExprPtr& filter : filters) {
          Result<bool> pass = filter->EvalBool(binding);
          if (!pass.ok() || !*pass) return true;
        }
        rdf::Binding projected;
        for (const std::string& var : variables) {
          auto it = binding.find(var);
          if (it != binding.end()) projected.emplace(var, it->second);
        }
        return emitter.Emit(std::move(projected));
      });
  Status fault = emitter.Finish();
  LAKEFED_RETURN_NOT_OK(scan);
  return fault;
}

std::string MetaSource::RenderTable(const std::string& table) const {
  const std::string class_iri = TableClass(table);
  if (class_iri.empty()) {
    std::string names;
    for (const std::string& t : Tables()) {
      names += names.empty() ? t : ", " + t;
    }
    return "unknown sys table '" + table + "' (tables: " + names + ")\n";
  }
  rdf::TripleStore store;
  BuildSnapshot(table, &store);
  std::ostringstream out;
  const std::string ns(kSysNamespace);
  const std::string root = std::string(kSubjectRoot);
  std::vector<rdf::Triple> rows =
      store.Match(std::nullopt, rdf::Term::Iri(rdf::kRdfType),
                  rdf::Term::Iri(class_iri));
  if (rows.empty()) {
    out << "sys." << table << ": empty\n";
    return out.str();
  }
  for (const rdf::Triple& row : rows) {
    std::string key(row.subject.value());
    if (key.rfind(root, 0) == 0) key = key.substr(root.size());
    out << key << "\n";
    for (const rdf::Triple& t :
         store.Match(row.subject, std::nullopt, std::nullopt)) {
      if (t.predicate.value() == rdf::kRdfType) continue;
      std::string pred(t.predicate.value());
      if (pred.rfind(ns, 0) == 0) pred = pred.substr(ns.size());
      out << "  " << pred << " = " << t.object.value() << "\n";
    }
  }
  return out.str();
}

}  // namespace lakefed::fed
